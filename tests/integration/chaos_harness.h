// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Chaos harness: sweeps seeded fault configurations over a set of queries
// and checks the system's core robustness contract — every query either
// completes with a verified-correct answer or fails with a clean typed
// Status. Nothing may crash, corrupt an answer, or return an untyped
// error. Each run arms a seed-derived random subset of the known fault
// sites (random fire modes and parameters) and, optionally, a random
// query-governor budget; runs are replayable bit-for-bit from
// (config.base_seed, run index) alone.

#ifndef ROBUSTQO_TESTS_INTEGRATION_CHAOS_HARNESS_H_
#define ROBUSTQO_TESTS_INTEGRATION_CHAOS_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"
#include "optimizer/query.h"

namespace robustqo {
namespace workload {

/// Knobs for one chaos sweep.
struct ChaosConfig {
  uint64_t base_seed = 1;
  /// Number of fault configurations to sweep (one query execution each).
  size_t runs = 200;
  /// Per-site probability that a run arms the site at all.
  double arm_probability = 0.5;
  /// Probability that a run also applies random governor limits.
  double governor_probability = 0.3;
  /// Enables parallel sweeps: builds one Database per worker thread (same
  /// data + statistics as the primary — each run is self-contained given
  /// (database state, seed), so outcomes are independent of which worker
  /// executes them). Used when perf::ThreadCount() > 1; without a factory
  /// the sweep runs sequentially on the primary database. The report is
  /// byte-identical at every thread count: runs are reduced in run-index
  /// order regardless of completion order.
  std::function<std::unique_ptr<core::Database>()> database_factory;
  /// Optional sink for the sweep's execution metrics. Every run records
  /// into its own registry and the registries are merged into this one in
  /// run-index order after the sweep, so the merged contents (and any
  /// export of them) do not depend on the thread count or on which worker
  /// claimed which run — including last-write-wins gauges.
  obs::MetricsRegistry* metrics = nullptr;
  /// When > 0, each run routes its query through a server::QueryService
  /// with this many open sessions (one seed-picked session issues the
  /// query), instead of calling the database directly. That puts the
  /// serving-layer fault sites — server.admission.enqueue and
  /// server.plan_cache.lookup — inside the chaos blast radius under the
  /// same contract: verified answer or clean typed failure.
  size_t sessions = 0;
};

/// One run's outcome.
struct ChaosRunOutcome {
  uint64_t seed = 0;
  std::string armed;       ///< fault arming description (empty = none)
  bool executed = false;   ///< query returned rows
  bool verified = false;   ///< answer matched the fault-free reference
  StatusCode code = StatusCode::kOk;  ///< failure code when !executed
  std::string error;       ///< failure message when !executed
};

/// Aggregate results of a sweep.
struct ChaosReport {
  size_t runs = 0;
  size_t completed = 0;         ///< executed with the correct answer
  size_t failed_typed = 0;      ///< clean typed failure
  /// Contract violations — must be empty for a healthy system:
  /// completed-but-wrong answers and failures with an untyped code.
  std::vector<ChaosRunOutcome> violations;
  /// Failure counts by StatusCode name ("Unavailable", ...).
  std::map<std::string, size_t> failures_by_code;
  /// How often each fault site was armed across the sweep.
  std::map<std::string, size_t> armed_counts;

  bool ContractHolds() const { return violations.empty(); }
  std::string Summary() const;
};

/// Runs chaos sweeps against one database. The harness arms the database's
/// own fault injector and governor limits and restores both (disarmed /
/// unlimited) after every run.
class ChaosHarness {
 public:
  explicit ChaosHarness(core::Database* db) : db_(db) {}

  /// Sweeps `config.runs` seeded fault configurations round-robin over
  /// `queries`. Reference answers are computed fault-free up front; each
  /// chaotic execution must match them or fail typed.
  ChaosReport Run(const ChaosConfig& config,
                  const std::vector<opt::QuerySpec>& queries);

  /// Write-path sweep: seeded fault configurations round-robin over DML
  /// `statements` (INSERT/UPDATE/DELETE SQL), checking the atomic-commit
  /// contract — after every run, the visible checksum of every table
  /// equals either the pre-write state (the write failed with a clean
  /// typed Status and rolled back completely) or the fully-committed
  /// fault-free reference (the write succeeded). Anything in between —
  /// a partial apply surviving a failure, or a "successful" commit whose
  /// state differs from the reference — is a contract violation. Runs
  /// execute sequentially against the harness database; each run's
  /// committed effects are reverted (Catalog::RevertWritesAfter) before
  /// the next, so every run starts from identical state and the sweep is
  /// replayable from config.base_seed alone. In the report, `completed`
  /// counts verified commits and `failed_typed` counts clean full
  /// rollbacks. The parallel `database_factory` and `metrics` knobs are
  /// ignored on this path.
  ChaosReport RunDml(const ChaosConfig& config,
                     const std::vector<std::string>& statements);

 private:
  core::Database* db_;
};

}  // namespace workload
}  // namespace robustqo

#endif  // ROBUSTQO_TESTS_INTEGRATION_CHAOS_HARNESS_H_
