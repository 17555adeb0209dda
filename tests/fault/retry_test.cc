#include "fault/retry.h"

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace robustqo {
namespace fault {
namespace {

TEST(RetryTest, SucceedsFirstTryWithoutBackoff) {
  RetryStats stats;
  Status s = RetryWithBackoff(
      RetryPolicy{}, [] { return Status::OK(); }, &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.backoff_units, 0u);
  EXPECT_FALSE(stats.exhausted);
}

TEST(RetryTest, RetriesTransientUnavailability) {
  int calls = 0;
  RetryStats stats;
  Status s = RetryWithBackoff(
      RetryPolicy{},
      [&] {
        ++calls;
        return calls < 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  // Backoff doubles per retry: 1 before attempt 2, 2 before attempt 3.
  EXPECT_EQ(stats.backoff_units, 3u);
}

TEST(RetryTest, NonRetryableErrorsReturnImmediately) {
  int calls = 0;
  RetryStats stats;
  Status s = RetryWithBackoff(
      RetryPolicy{},
      [&] {
        ++calls;
        return Status::NotFound("gone for good");
      },
      &stats);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(stats.exhausted);
}

TEST(RetryTest, ExhaustionReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  RetryStats stats;
  Status s = RetryWithBackoff(
      policy,
      [&] {
        ++calls;
        return Status::Unavailable("still down");
      },
      &stats);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.backoff_units, 1u + 2u + 4u);
}

TEST(RetryTest, WorksWithResultReturningFunctions) {
  int calls = 0;
  Result<int> r = RetryWithBackoff(RetryPolicy{}, [&]() -> Result<int> {
    ++calls;
    if (calls < 2) return Status::Unavailable("flaky");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, HealsFaultInjectedTransientFailure) {
  // The intended end-to-end use: a FirstN-armed site fails transiently and
  // the retry wrapper rides it out.
  FaultInjector injector;
  injector.Arm(sites::kSampleRead, FaultSpec::FirstN(2));
  RetryStats stats;
  Status s = RetryWithBackoff(
      RetryPolicy{}, [&] { return injector.Check(sites::kSampleRead); },
      &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(stats.attempts, 3);

  // An always-failing site exhausts the budget with a clean typed error.
  injector.Arm(sites::kSampleRead, FaultSpec::Always());
  s = RetryWithBackoff(
      RetryPolicy{}, [&] { return injector.Check(sites::kSampleRead); },
      &stats);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(stats.exhausted);
}

TEST(RetryTest, MetricsRecordRetriesAndExhaustion) {
  obs::MetricsRegistry metrics;
  int calls = 0;
  (void)RetryWithBackoff(
      RetryPolicy{},
      [&] {
        ++calls;
        return calls < 2 ? Status::Unavailable("flaky") : Status::OK();
      },
      nullptr, &metrics);
  (void)RetryWithBackoff(
      RetryPolicy{}, [] { return Status::Unavailable("down"); }, nullptr,
      &metrics);
  // 1 retry from the healed call + 2 from the exhausted one.
  EXPECT_EQ(metrics.GetCounter("fault.retry.attempts")->value(), 3u);
  EXPECT_EQ(metrics.GetCounter("fault.retry.exhausted")->value(), 1u);
  EXPECT_GT(metrics.GetCounter("fault.retry.backoff_units")->value(), 0u);
}

TEST(RetryTest, ZeroOrNegativeMaxAttemptsStillTriesOnce) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  int calls = 0;
  (void)RetryWithBackoff(policy, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace fault
}  // namespace robustqo
