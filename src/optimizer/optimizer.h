// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Cost-based query optimizer: single-table access-path selection (seq scan,
// index range scan, index intersection), System-R-style dynamic programming
// over FK-connected join subsets with hash/merge/indexed-nested-loop
// methods, and star-specific semijoin strategies. Cardinalities come from a
// pluggable CardinalityEstimator — the ONLY part of the optimizer that
// changes between the histogram baseline and the paper's robust estimator.
// Plan enumeration, cost formulas and search are identical for both, per
// the paper's integration argument (Section 3.1.1).

#ifndef ROBUSTQO_OPTIMIZER_OPTIMIZER_H_
#define ROBUSTQO_OPTIMIZER_OPTIMIZER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/plan.h"
#include "optimizer/query.h"
#include "statistics/cardinality_estimator.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace robustqo {
namespace opt {

/// Per-query optimizer knobs. The confidence-threshold hint models the
/// paper's SQL query hint overriding the system-wide robustness setting
/// (Section 6.2.5); it only has effect when the estimator is the robust
/// sample-based one.
struct OptimizerOptions {
  std::optional<double> confidence_threshold_hint;
  bool enable_index_intersection = true;
  bool enable_hash_join = true;
  bool enable_merge_join = true;
  /// Allow explicit Sort operators to feed merge joins whose inputs do not
  /// arrive in key order.
  bool enable_sort_for_merge = true;
  bool enable_index_nested_loop = true;
  bool enable_star_strategies = true;
  /// Memoize cardinality estimates within one Optimize() call. Disabling
  /// reproduces the paper's unmemoized prototype (Section 6.1) for the
  /// overhead ablation.
  bool enable_estimate_memo = true;
  /// Observability sinks (borrowed, nullable). With a tracer attached the
  /// optimizer records an "optimize" span covering every cardinality
  /// estimate (subset, cache hit/miss, value) and per-subset pruning
  /// decisions; metrics get estimate/cache/candidate counters.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Plan-provenance capture — strictly read-only with respect to plan
  /// choice; enumeration does the same work either way. When enabled,
  /// Optimize() fills the returned plan's PlanSensitivity: the
  /// winner plus the top provenance_top_k runner-ups (post-prune), each
  /// re-costed over the plan memo at the posterior quantile grid, with a
  /// stability/crossover verdict. The added cdf^{-1} work goes through
  /// the estimator's posterior quantiles and is excluded from
  /// last_metrics()'s per-query cache counters.
  bool provenance_enabled = false;
  size_t provenance_top_k = 3;
};

/// Cost-based SPJ optimizer.
class Optimizer {
 public:
  /// `catalog` and `estimator` must outlive the optimizer.
  Optimizer(const storage::Catalog* catalog,
            stats::CardinalityEstimator* estimator,
            exec::CostModel cost_model = exec::CostModel::Default());

  /// Plans `query`, returning the cheapest plan found.
  Result<PlannedQuery> Optimize(const QuerySpec& query,
                                const OptimizerOptions& options = {});

  /// Bookkeeping from the most recent Optimize() call.
  struct Metrics {
    size_t estimator_calls = 0;    ///< total cardinality requests issued
    size_t estimator_misses = 0;   ///< requests that were not cached
    size_t candidates = 0;         ///< physical plan candidates costed
    // perf.cache.* effectiveness of the run (robust estimator only; all
    // zero otherwise). Probe cache: (k, n) sample scans saved. Beta
    // cache: inverse-Beta quantile evaluations saved.
    size_t probe_cache_hits = 0;
    size_t probe_cache_misses = 0;
    size_t beta_cache_hits = 0;
    size_t beta_cache_misses = 0;
  };
  const Metrics& last_metrics() const { return metrics_; }

  const exec::CostModel& cost_model() const { return cost_model_; }

  /// The quantile grid sensitivity curves are evaluated on.
  static const std::vector<double>& SensitivityGrid();

  /// The plan memo of the most recent Optimize() call; the finalists of
  /// a query over n tables are its list (1 << n) - 1. Public for tests.
  const PlanMemo& last_memo() const { return memo_; }

  /// Keeps only the cheapest candidate overall and per distinct sort
  /// order. Tie-break is pinned (lower cost, then lexicographically
  /// smaller memo label) so the surviving order — which feeds the
  /// provenance top-K — never depends on candidate generation order.
  /// Public for tests.
  static void PruneCandidates(const PlanMemo& memo,
                              std::vector<PlanEntry>* candidates);

 private:
  // -- Per-run state (reset by Optimize) --
  struct RunState;

  // Estimated output rows of the SPJ subexpression over `subset` (as a
  // bitmask over the query's tables), memoized per run on (subset, tag).
  // A given `predicate` replaces the subset's own predicates. Without one,
  // the predicates of `predicate_subset` apply (0 = `subset` itself; INLJ
  // index entries use the outer subset's), built only on a memo miss.
  double EstimateRows(RunState* run, uint32_t subset,
                      const std::string& tag = "own",
                      const expr::ExprPtr* predicate = nullptr,
                      uint32_t predicate_subset = 0);

  // Access paths for a single table; appends candidates.
  void AddAccessPaths(RunState* run, size_t table_idx,
                      std::vector<PlanEntry>* out);

  // Join candidates combining the memo's pruned plans for subsets `s1`
  // and `s2`; appends to `out`.
  void AddJoinCandidates(RunState* run, uint32_t s1, uint32_t s2,
                         std::vector<PlanEntry>* out);

  // Star semijoin strategies for the full table set (implemented in
  // star_strategies.cc); appends to `out`.
  void AddStarCandidates(RunState* run, std::vector<PlanEntry>* out);

  // The plan choice's sensitivity, from the memo's pruned finalists of the
  // full table set: the estimator's posterior at the quantile grid, one
  // re-cost curve per retained candidate, verdict via FinalizeSensitivity.
  obs::PlanSensitivity CaptureSensitivity(RunState* run,
                                          uint32_t full_subset);

  const storage::Catalog* catalog_;
  stats::CardinalityEstimator* estimator_;
  exec::CostModel cost_model_;
  Metrics metrics_;
  PlanMemo memo_;
};

}  // namespace opt
}  // namespace robustqo

#endif  // ROBUSTQO_OPTIMIZER_OPTIMIZER_H_
