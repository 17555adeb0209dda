// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The baseline: per-column equi-depth histograms combined under the
// attribute-value-independence (AVI) assumption, with the containment
// assumption for foreign-key joins — the estimation strategy of the
// commercial system the paper modifies. Its failure mode on correlated
// predicates is precisely what the experiments of Section 6 exercise.

#ifndef ROBUSTQO_STATISTICS_HISTOGRAM_ESTIMATOR_H_
#define ROBUSTQO_STATISTICS_HISTOGRAM_ESTIMATOR_H_

#include <string>

#include "statistics/cardinality_estimator.h"
#include "statistics/statistics_catalog.h"

namespace robustqo {
namespace stats {

/// Histogram + AVI cardinality estimator.
class HistogramEstimator : public CardinalityEstimator {
 public:
  explicit HistogramEstimator(const StatisticsCatalog* statistics)
      : statistics_(statistics) {}

  /// Estimate = |root| * Π over tables t of sel(t), where sel(t) is the
  /// product of per-conjunct selectivities (AVI): sargable conjuncts use
  /// the histogram on their column; anything else gets a magic number.
  Result<double> EstimateRows(const CardinalityRequest& request,
                              const EstimationContext& context) override;

  /// Selectivity of `predicate` against a single table.
  Result<double> EstimateTableSelectivity(const std::string& table,
                                          const expr::ExprPtr& predicate);

  /// Distinct count from the column's histogram (sum of per-bucket
  /// distinct counters — exact up to histogram construction).
  Result<double> EstimateDistinctValues(
      const std::string& table, const std::string& column,
      const EstimationContext& context) override;

  std::string name(const EstimationContext& /*context*/) const override {
    return "histogram-avi";
  }

 private:
  const StatisticsCatalog* statistics_;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_HISTOGRAM_ESTIMATOR_H_
