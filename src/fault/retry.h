// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Retry-with-deterministic-backoff for transient (kUnavailable) failures,
// e.g. a statistics sample whose storage read fails intermittently. Backoff
// is *logical*: units double per attempt and are recorded in RetryStats /
// metrics rather than slept away, so tests and chaos runs stay instant and
// bit-for-bit reproducible while the retry schedule remains realistic.

#ifndef ROBUSTQO_FAULT_RETRY_H_
#define ROBUSTQO_FAULT_RETRY_H_

#include <cstdint>

#include "obs/metrics.h"
#include "util/status.h"

namespace robustqo {
namespace fault {

/// Retry schedule. max_attempts includes the first try; backoff before
/// attempt k (k >= 2) is base_backoff_units << (k - 2) logical units.
struct RetryPolicy {
  int max_attempts = 3;
  uint64_t base_backoff_units = 1;

  /// Only transient unavailability is retryable; every other error is
  /// returned to the caller immediately.
  static bool IsRetryable(const Status& status) {
    return status.code() == StatusCode::kUnavailable;
  }
};

/// What a RetryWithBackoff call actually did.
struct RetryStats {
  int attempts = 0;
  uint64_t backoff_units = 0;
  bool exhausted = false;  ///< all attempts failed with a retryable error
};

namespace internal {
inline const Status& ToStatus(const Status& status) { return status; }
template <typename T>
Status ToStatus(const Result<T>& result) {
  return result.status();
}
}  // namespace internal

/// Invokes `fn` (returning Result<T> or Status) up to policy.max_attempts
/// times, backing off deterministically between retryable failures.
/// Returns the first success or the last error. Optional sinks record
/// "fault.retry.attempts" / "fault.retry.backoff_units" /
/// "fault.retry.exhausted".
template <typename Fn>
auto RetryWithBackoff(const RetryPolicy& policy, Fn&& fn,
                      RetryStats* stats = nullptr,
                      obs::MetricsRegistry* metrics = nullptr)
    -> decltype(fn()) {
  RetryStats local;
  RetryStats* out = stats != nullptr ? stats : &local;
  out->attempts = 0;
  out->backoff_units = 0;
  out->exhausted = false;
  const int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  while (true) {
    ++out->attempts;
    auto result = fn();
    if (result.ok() || !RetryPolicy::IsRetryable(internal::ToStatus(result))) {
      if (metrics != nullptr) {
        if (out->attempts > 1) {
          metrics->GetCounter("fault.retry.attempts")
              ->Increment(static_cast<uint64_t>(out->attempts - 1));
          metrics->GetCounter("fault.retry.backoff_units")
              ->Increment(out->backoff_units);
        }
      }
      return result;
    }
    if (out->attempts >= attempts) {
      out->exhausted = true;
      if (metrics != nullptr) {
        metrics->GetCounter("fault.retry.attempts")
            ->Increment(static_cast<uint64_t>(out->attempts - 1));
        metrics->GetCounter("fault.retry.backoff_units")
            ->Increment(out->backoff_units);
        metrics->GetCounter("fault.retry.exhausted")->Increment();
      }
      return result;
    }
    out->backoff_units += policy.base_backoff_units
                          << (out->attempts - 1 < 63 ? out->attempts - 1 : 63);
  }
}

}  // namespace fault
}  // namespace robustqo

#endif  // ROBUSTQO_FAULT_RETRY_H_
