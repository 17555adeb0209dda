// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The cardinality-estimation interface the optimizer calls. Exactly one
// method matters: given an SPJ subexpression (a set of FK-joined tables plus
// a conjunctive predicate), estimate the number of result rows. Swapping
// the implementation — histogram/AVI baseline vs the robust sample-based
// estimator — is the entire integration surface of the paper's technique
// (Section 3.1.1: "changes ... can be entirely isolated within the
// cardinality estimation module"). Per-call state — the query's T%
// hint, trace/metrics sinks, the probe memo — travels in an
// EstimationContext argument, never in the shared estimator.

#ifndef ROBUSTQO_STATISTICS_CARDINALITY_ESTIMATOR_H_
#define ROBUSTQO_STATISTICS_CARDINALITY_ESTIMATOR_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace robustqo {
namespace perf {
class ProbeCountCache;
}  // namespace perf

namespace stats {

/// An SPJ subexpression whose result size the optimizer wants.
struct CardinalityRequest {
  /// Tables joined in the subexpression (all joins are FK joins implied by
  /// the catalog's FK graph). A single-table request has one entry.
  std::set<std::string> tables;
  /// Conjunction of all selection predicates applying to these tables; may
  /// be null, meaning TRUE.
  expr::ExprPtr predicate;
};

/// Everything that varies between two calls on one long-lived, shared
/// estimator. A default-constructed context estimates at the configured
/// threshold with no sinks and no memo.
struct EstimationContext {
  /// Confidence threshold T for this call — the paper's per-query hint
  /// overriding the system-wide setting (Section 6.2.5). Unset: the
  /// estimator's configured T. Estimators without a posterior ignore it.
  std::optional<double> confidence_threshold;
  /// Structured-trace sink (borrowed, nullable): one "estimator" event per
  /// estimate — sample k/n, posterior parameters, fallback path.
  obs::Tracer* tracer = nullptr;
  /// Metrics sink (borrowed, nullable): degradations
  /// ("estimator.degraded.*"), retries and perf.cache.* counters.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query probe-count memo (borrowed, nullable). The optimizer passes
  /// a fresh one per Optimize() call, so repeated costing of a shared
  /// conjunct never re-scans a sample and entries never outlive the
  /// statistics they were computed from.
  perf::ProbeCountCache* probe_cache = nullptr;
};

/// A request's selectivity posterior read at chosen quantiles — what plan
/// provenance re-costs its candidates over.
struct PosteriorQuantiles {
  /// The call's effective confidence threshold T (0 without a posterior).
  double threshold = 0.0;
  /// OK, or why no posterior backs the request; Unsupported means the
  /// estimator keeps no posterior at all.
  Status status;
  /// Selectivity at T.
  double at_threshold = 0.0;
  /// Selectivity at each requested quantile, in order.
  std::vector<double> selectivity;
};

/// Abstract cardinality estimation module.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Estimated number of rows produced by the subexpression.
  virtual Result<double> EstimateRows(const CardinalityRequest& request,
                                      const EstimationContext& context) = 0;

  /// Estimated number of distinct values of `table.column` (used for
  /// GROUP BY output sizing, paper Section 3.5). Default: Unsupported;
  /// callers fall back to a heuristic.
  virtual Result<double> EstimateDistinctValues(
      const std::string& table, const std::string& column,
      const EstimationContext& context);

  /// The request's selectivity posterior at `quantiles` and at the call's
  /// T. Default: status Unsupported.
  virtual PosteriorQuantiles EstimatePosteriorQuantiles(
      const CardinalityRequest& request, const std::vector<double>& quantiles,
      const EstimationContext& context);

  /// Display name for reports ("histogram-avi", "robust-sample@T=80%",
  /// ...), at the call's T.
  virtual std::string name(const EstimationContext& context) const = 0;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_CARDINALITY_ESTIMATOR_H_
