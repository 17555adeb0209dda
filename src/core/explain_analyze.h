// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// EXPLAIN ANALYZE: plan a query with a tracer attached, execute it, and
// merge the execution trace back onto the plan tree — per-operator
// estimated vs. actual rows, q-error and simulated cost, plus the
// per-predicate selectivity evidence (sample counts, Beta posterior,
// confidence threshold) the estimator used while planning. Renders as an
// aligned text table, Graphviz dot, or deterministic JSON.

#ifndef ROBUSTQO_CORE_EXPLAIN_ANALYZE_H_
#define ROBUSTQO_CORE_EXPLAIN_ANALYZE_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "obs/plan_provenance.h"
#include "obs/trace.h"
#include "optimizer/query.h"

namespace robustqo {
namespace core {

/// One plan operator with its planning-time estimate and traced actuals.
struct OperatorReport {
  int depth = 0;           ///< 0 = plan root
  std::string describe;    ///< PhysicalOperator::Describe()
  double estimated_rows = -1.0;  ///< optimizer annotation (-1 = none)
  uint64_t actual_rows = 0;
  /// True when an exec span was matched to this operator; false when
  /// tracing was off or the plan was never executed.
  bool executed = false;
  double q_error = 0.0;    ///< est vs. actual (valid when executed and annotated)
  double subtree_cost_seconds = 0.0;  ///< simulated cost of this subtree
  double self_cost_seconds = 0.0;     ///< subtree minus children
};

/// One cardinality-estimation decision recorded while planning: which
/// evidence source produced the selectivity for a predicate, and — for the
/// robust estimator — the k-of-n sample observation, the Beta posterior it
/// induced and the confidence threshold at which the posterior was
/// inverted (the paper's T% estimate).
struct PredicateReport {
  std::string tables;      ///< comma-joined table set
  std::string predicate;   ///< predicate text (may be empty for "magic")
  std::string source;      ///< "synopsis", "table-sample", "magic",
                           ///< "independence", "histogram-avi"
  /// Canonical predicate fingerprint (perf/fingerprint.h) — the key the
  /// estimator caches under, and the join key the estimation-quality
  /// monitor uses to pair this estimate with execution actuals. 0 when the
  /// producing event carried none (e.g. "magic", "default-wide").
  uint64_t fingerprint = 0;
  bool has_sample = false;
  uint64_t sample_k = 0;   ///< sample rows satisfying the predicate
  uint64_t sample_n = 0;   ///< sample size
  double posterior_alpha = 0.0;
  double posterior_beta = 0.0;
  double confidence_threshold = 0.0;  ///< 0 when not applicable (histogram)
  double selectivity = -1.0;          ///< -1 = not reported
  double estimated_rows = -1.0;       ///< -1 = not reported
};

/// One estimator degradation recorded while planning: an evidence tier
/// that was missing or unreadable and the tier the estimator fell back to
/// (see docs/ROBUSTNESS.md for the cascade).
struct DegradationReport {
  std::string tier_from;  ///< "synopsis", "table-sample", "histogram-avi"
  std::string tier_to;    ///< next tier down
  std::string reason;     ///< "missing" or "unavailable" (injected/transient)
  std::string tables;     ///< affected table (set) — comma-joined
};

/// The merged result of planning + executing one query under a tracer.
struct AnalyzedPlan {
  std::string plan_label;
  std::string estimator_name;
  double estimated_cost = 0.0;        ///< optimizer's predicted cost
  double actual_cost_seconds = 0.0;   ///< simulated seconds actually charged
  double estimated_rows = 0.0;        ///< plan-root prediction
  uint64_t actual_rows = 0;           ///< rows the query returned
  /// SPJ-core rows (before aggregation) — the estimator's actual output,
  /// so this pair is the meaningful q-error comparison.
  double estimated_spj_rows = 0.0;
  uint64_t actual_spj_rows = 0;
  double spj_q_error = 0.0;
  /// True when exec tracing produced spans.
  bool instrumented = false;
  /// Non-empty when execution failed (governor trip, cancellation or an
  /// injected fault): the typed Status rendered as "<Code>: <message>".
  /// The plan tree and any operators that ran before the failure are
  /// still reported.
  std::string execution_error;
  /// Governor accounting for the run (0 when unlimited and untouched).
  uint64_t peak_memory_bytes = 0;
  uint64_t rows_charged = 0;
  std::vector<OperatorReport> operators;    ///< pre-order, root first
  std::vector<PredicateReport> predicates;  ///< planning order, deduplicated
  /// Estimator degradations hit while planning, in occurrence order.
  std::vector<DegradationReport> degradations;
  opt::Optimizer::Metrics optimizer_metrics;
  /// Plan-choice sensitivity across the selectivity posterior. Rendered
  /// (text/JSON/dot) only when `sensitivity.captured`, i.e. when the plan
  /// was made with provenance capture on — output is byte-identical to
  /// pre-provenance builds otherwise.
  obs::PlanSensitivity sensitivity;

  /// Aligned text table (the shell's EXPLAIN ANALYZE output).
  std::string ToText() const;
  /// Graphviz digraph with est/actual/q-error per node.
  std::string ToDot(const std::string& graph_name = "plan") const;
  /// Deterministic JSON object (byte-identical across same-seed runs).
  std::string ToJson() const;
};

/// Zips the plan tree's pre-order with the "exec" spans of `events` (which
/// Run() emits in exactly that order), producing one OperatorReport per
/// plan node. Nodes without a matching span come back executed=false.
std::vector<OperatorReport> AnnotatePlan(
    const exec::PhysicalOperator& root,
    const std::vector<obs::TraceEvent>& events);

/// Extracts per-predicate estimation detail from "estimator" events,
/// deduplicated by (tables, predicate, source) keeping first occurrence.
std::vector<PredicateReport> CollectPredicateReports(
    const std::vector<obs::TraceEvent>& events);

/// Extracts the estimator's tier-fallback decisions from "degraded" events.
std::vector<DegradationReport> CollectDegradations(
    const std::vector<obs::TraceEvent>& events);

/// Plans and executes `query` with a scratch tracer passed on both calls
/// (the database's own tracer, if any, sees neither), and merges the two
/// trace phases into one report. When `trace_out` is
/// non-null it receives the full record stream — planning events followed
/// by execution spans — ready for obs::ToChromeTrace (the shell's
/// `.trace export`).
Result<AnalyzedPlan> ExplainAnalyze(
    Database* db, const opt::QuerySpec& query,
    EstimatorKind kind = EstimatorKind::kRobustSample,
    const opt::OptimizerOptions& options = {},
    std::vector<obs::TraceEvent>* trace_out = nullptr);

}  // namespace core
}  // namespace robustqo

#endif  // ROBUSTQO_CORE_EXPLAIN_ANALYZE_H_
