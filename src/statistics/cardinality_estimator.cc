#include "statistics/cardinality_estimator.h"

namespace robustqo {
namespace stats {

Result<double> CardinalityEstimator::EstimateDistinctValues(
    const std::string& table, const std::string& column,
    const EstimationContext& /*context*/) {
  return Status::Unsupported("no distinct-value estimate for " + table +
                             "." + column);
}

PosteriorQuantiles CardinalityEstimator::EstimatePosteriorQuantiles(
    const CardinalityRequest& /*request*/,
    const std::vector<double>& /*quantiles*/,
    const EstimationContext& /*context*/) {
  PosteriorQuantiles out;
  out.status = Status::Unsupported("estimator keeps no posterior");
  return out;
}

}  // namespace stats
}  // namespace robustqo
