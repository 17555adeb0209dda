// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Admission control: the gate between accepted requests and the executor.
// Beyond the per-query budgets fault::QueryGovernor enforces *inside* a
// running query, the admission controller enforces the *global* limit a
// serving system needs: a concurrency cap (at most `max_concurrent`
// queries execute at once).
//
// Requests enter a strict-FIFO queue and are admitted from its head while
// a slot is free. That buys the two properties the tests pin down — no
// starvation (every queued request is admitted after finitely many
// completions) and determinism (the admitted set of each scheduling wave
// is a pure function of the submission order).
//
// Rejections are typed: a full queue rejects with kResourceExhausted, and
// the `server.admission.enqueue` fault site (load shedding, dropped
// connections) rejects with the armed status, kUnavailable by default.

#ifndef ROBUSTQO_SERVER_ADMISSION_H_
#define ROBUSTQO_SERVER_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "server/session.h"
#include "util/status.h"

namespace robustqo {
namespace server {

/// Global serving limits; 0 disables the corresponding limit.
struct AdmissionConfig {
  /// Queries executing at once. 0 = unlimited (bounded only by the batch).
  size_t max_concurrent = 4;
  /// Requests waiting for a slot before new submissions are rejected with
  /// kResourceExhausted. 0 = unbounded queue.
  size_t max_queue_depth = 64;
};

/// Backpressure counters, exported as server.admission.* metrics.
struct AdmissionStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_fault = 0;
  uint64_t completed = 0;
  /// Requests that spent at least one scheduling wave queued — the
  /// backpressure signal.
  uint64_t waited = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t peak_in_flight = 0;
  /// Scheduling waves popped over the controller's lifetime — the wave
  /// ordinal a request's trace records at admission.
  uint64_t waves = 0;
};

/// One queued/admitted request, identified by its dense ticket number.
struct AdmissionTicket {
  uint64_t ticket = 0;
  SessionId session = 0;
  /// Scheduling waves this request waited in the queue before admission.
  uint64_t waves_waited = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  const AdmissionConfig& config() const { return config_; }

  /// Enqueues a request for `session`. Probes the
  /// server.admission.enqueue fault site first, then the queue-depth
  /// limit. Returns the request's ticket number.
  Result<uint64_t> Submit(SessionId session);

  /// Pops the next wave of admitted requests: head-of-queue requests, in
  /// FIFO order, while a concurrency slot is free. Also counts a wave of
  /// waiting for every request left queued.
  std::vector<AdmissionTicket> AdmitWave();

  /// Releases `ticket`'s slot.
  Status Complete(uint64_t ticket);

  size_t queue_depth() const { return queue_.size(); }
  size_t in_flight() const { return in_flight_.size(); }
  const AdmissionStats& stats() const { return stats_; }

  /// Fault injector probed at server.admission.enqueue (borrowed,
  /// nullable = never sheds load).
  void set_fault_injector(fault::FaultInjector* fault) { fault_ = fault; }

  /// Publishes server.admission.* counters and gauges (no-op on null).
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

 private:
  AdmissionConfig config_;
  fault::FaultInjector* fault_ = nullptr;
  uint64_t next_ticket_ = 1;
  std::deque<AdmissionTicket> queue_;
  std::vector<AdmissionTicket> in_flight_;  // ordered by admission
  AdmissionStats stats_;
};

}  // namespace server
}  // namespace robustqo

#endif  // ROBUSTQO_SERVER_ADMISSION_H_
