// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Traffic harness: drives the server::QueryService with a population of
// simulated clients over simulated time and reports throughput and tail
// latency. Two client models, both standard in serving benchmarks:
//
//   * closed-loop: each client issues a query, waits for it to complete,
//     thinks for a seeded-exponential pause, and issues the next one —
//     load self-regulates with service capacity;
//   * open-loop: each client issues on its own seeded arrival process
//     regardless of completions — load does not back off, so admission
//     backpressure (queueing, shed load) actually bites.
//
// Time is entirely simulated: a request's service time is the simulated
// execution seconds the engine's cost meter reports plus, for a read that
// ran the optimizer, a fixed planning charge; queueing delay is charged
// per admission wave waited. Both charges are the service ledger's
// (obs::FingerprintLedger::ServiceSeconds/QueueWaitSeconds), so the
// report and the ledger's SLO columns agree. No wall clock is read
// anywhere, so a run — including its formatted summary — is
// byte-identical for a given config at any RQO_THREADS setting, while
// still exercising the real service (admission control, plan cache,
// drift monitor) underneath.
//
// Clients are grouped into batch windows: all requests due within one
// window enter one ExecuteBatch() call in (due time, client id) order,
// which is what gives the service real concurrent batches to schedule.

#ifndef ROBUSTQO_WORKLOAD_TRAFFIC_HARNESS_H_
#define ROBUSTQO_WORKLOAD_TRAFFIC_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/quantile_sketch.h"
#include "server/query_service.h"

namespace robustqo {
namespace workload {

enum class TrafficMode {
  kClosedLoop,
  kOpenLoop,
};

/// Knobs for one traffic run.
struct TrafficConfig {
  uint64_t base_seed = 1;
  TrafficMode mode = TrafficMode::kClosedLoop;
  /// Simulated client population (each gets its own session).
  size_t clients = 1000;
  /// Simulated run length; clients stop issuing once the clock passes it.
  double duration_seconds = 300.0;
  /// Mean think time between a completion and the next issue (closed
  /// loop), seeded-exponential per client.
  double think_seconds = 5.0;
  /// Mean inter-arrival time per client (open loop), seeded-exponential.
  double interarrival_seconds = 5.0;
  /// Retry pause after a typed admission rejection.
  double retry_backoff_seconds = 2.0;
  /// Requests due within one window form one service batch.
  double batch_window_seconds = 1.0;
  /// SQL statements clients rotate through (client id picks the phase).
  /// Every client PREPAREs each statement in its own session.
  std::vector<std::string> statements;
  /// Confidence thresholds rotated across client sessions (0 = inherit the
  /// system default). Empty behaves like {0}.
  std::vector<double> thresholds;
  /// Fraction of issues that are writes (0 = read-only). The per-issue
  /// read/write choice is a random-access hash of (client seed, issue
  /// ordinal), so an admission-rejected issue retries as the same kind and
  /// the mix is independent of scheduling.
  double write_fraction = 0.0;
  /// DML statements write issues rotate through (PREPAREd per session like
  /// the read statements). Ignored when write_fraction <= 0; a positive
  /// write_fraction with an empty list degrades to read-only.
  std::vector<std::string> write_statements;
};

/// Aggregate outcome of a traffic run.
struct TrafficReport {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  ///< typed admission rejections (retried)
  uint64_t cache_hits = 0;
  uint64_t batches = 0;
  /// Write-path tallies (all zero on read-only runs; the Summary() block
  /// adds its "writes:" line only when at least one write was issued, so
  /// read-only summaries are byte-identical to pre-write-path ones).
  uint64_t writes_issued = 0;
  uint64_t writes_committed = 0;
  uint64_t write_rows = 0;       ///< row versions written (inserts+deletes)
  uint64_t commit_retries = 0;   ///< extra commit attempts beyond the first
  /// Data epoch after the run — how many DML commits published.
  uint64_t final_data_epoch = 0;
  double duration_seconds = 0.0;
  /// completed / duration.
  double throughput_qps = 0.0;
  /// End-to-end simulated latency (queueing + planning charge + execution).
  obs::QuantileSketch latency;
  double latency_max_seconds = 0.0;
  /// Queue-wait component alone (admission waves × wave delay) — the
  /// ledger's SLO backpressure signal.
  obs::QuantileSketch queue_wait;
  /// Service component alone (execution + planning charge).
  obs::QuantileSketch service_time;
  server::AdmissionStats admission;
  server::PlanCacheStats plan_cache;
  /// The ledger's SLO report (empty when it observed nothing).
  std::string slo_report;

  /// Deterministic fixed-precision text block — the byte-identical
  /// artifact the determinism suite pins across thread counts.
  std::string Summary() const;
};

/// Runs the configured traffic against `service`. The service's sessions
/// are opened (and closed) by the harness; its plan cache, admission
/// controller and fingerprint ledger are exercised as-is.
TrafficReport RunTraffic(server::QueryService* service,
                         const TrafficConfig& config);

}  // namespace workload
}  // namespace robustqo

#endif  // ROBUSTQO_WORKLOAD_TRAFFIC_HARNESS_H_
