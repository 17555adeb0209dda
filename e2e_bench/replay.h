// The traced layer replay.
//
// Replays the service run's request stream, batch by batch and in
// admission order, on a database of its own built from the same seed, and
// times each public call into a layer as a span:
//
//   sql        Database::ParseSql (one-shot reads), sql::ParseStatement (DML)
//   optimizer  Database::Plan (includes statistics estimation)
//   exec       PhysicalOperator::Run of the plan, per read
//   storage    Database::ExecuteDml
//   statistics Database::UpdateStatistics, Database::RebuildPendingStatistics
//
// Waves mirror the service's scheduler: the default admission limit sets
// the wave size; each wave plans sequentially, runs its reads in parallel
// on the TaskPool pinned to the wave-start data epoch, then applies its
// writes in order and rebuilds flagged statistics. A read is planned only
// where the service reported a plan-cache miss; otherwise the replay reuses
// its last plan for that (fingerprint, T%) key. Plans use the session T% as
// the hint with provenance capture on, as the service's PLAN phase does.
//
// Reads execute through the operator tree under a per-request ExecContext,
// like the service's EXECUTE phase, rather than through
// Database::ExecutePlan: that call shares the database's one fault
// injector, so two of them must not run at once.

#ifndef ROBUSTQO_E2E_BENCH_REPLAY_H_
#define ROBUSTQO_E2E_BENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "spans.h"
#include "workloads.h"

namespace robustqo {
namespace e2e {

/// What the service run reported for one request.
struct ServedRequest {
  bool ok = false;
  bool cache_hit = false;
  uint64_t fingerprint = 0;
  /// Data epoch the read was pinned to (reads only).
  uint64_t snapshot = 0;
};

struct ReplayCounts {
  uint64_t plans = 0;
  uint64_t estimator_calls = 0;
  uint64_t estimator_misses = 0;
  uint64_t candidates = 0;
  uint64_t probe_hits = 0;
  uint64_t probe_misses = 0;
  uint64_t beta_hits = 0;
  uint64_t beta_misses = 0;
  uint64_t rebuilds = 0;       ///< tables rebuilt by background maintenance
  uint64_t rows_examined = 0;  ///< sequential tuples + index entries
  uint64_t output_tuples = 0;
  uint64_t rows_written = 0;   ///< row versions inserted + delete stamps
  uint64_t commit_retries = 0;
  uint64_t failures = 0;       ///< calls that failed, or diverged from the service
};

struct ReplayResult {
  ReplayCounts counts;
  /// Wall time of the batch loop (set-up excluded).
  double wall_seconds = 0.0;
  /// Completed reads, for comparison with the service's results.
  std::vector<ReadRecord> reads;
  std::unique_ptr<core::Database> db;
  std::map<std::string, uint64_t> initial_rows;
  std::map<std::string, int64_t> written_rows;
};

/// Replays `rounds`; `served[b][i]` is the service's report for request i
/// of round b and `batch_spans[b]` the span id of that round's
/// ExecuteBatch (the parent of every replay span of the round; empty when
/// spans are off). Request ids are 1-based ordinals across rounds.
ReplayResult ReplayLayers(const WorkloadSpec& spec,
                          const std::vector<Round>& rounds,
                          const std::vector<std::vector<ServedRequest>>& served,
                          const std::vector<uint32_t>& batch_spans,
                          SpanRecorder* spans);

}  // namespace e2e
}  // namespace robustqo

#endif  // ROBUSTQO_E2E_BENCH_REPLAY_H_
