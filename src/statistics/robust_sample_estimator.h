// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The paper's contribution: cardinality estimation that (1) evaluates the
// predicate on a precomputed join synopsis, (2) infers a Beta posterior for
// the true selectivity by Bayes's rule, and (3) condenses the posterior to
// the single value cdf^{-1}(T) where T is the user's confidence threshold —
// the knob trading expected performance against predictability
// (Sections 3.1-3.4).

#ifndef ROBUSTQO_STATISTICS_ROBUST_SAMPLE_ESTIMATOR_H_
#define ROBUSTQO_STATISTICS_ROBUST_SAMPLE_ESTIMATOR_H_

#include <cstdint>
#include <optional>
#include <string>

#include "fault/retry.h"
#include "perf/caches.h"
#include "statistics/cardinality_estimator.h"
#include "statistics/histogram_estimator.h"
#include "statistics/selectivity_posterior.h"
#include "statistics/statistics_catalog.h"

namespace robustqo {
namespace stats {

/// System-wide robustness presets (paper Section 6.2.5): query hints can
/// still override the threshold per query.
enum class RobustnessLevel {
  kAggressive,    ///< T = 50%
  kModerate,      ///< T = 80% — the recommended general-purpose baseline
  kConservative,  ///< T = 95%
};

/// Confidence threshold for a robustness preset.
double ConfidenceThresholdFor(RobustnessLevel level);

/// Configuration of the robust estimator.
struct RobustEstimatorConfig {
  /// Percentile of the selectivity posterior reported to the optimizer.
  double confidence_threshold = 0.80;
  /// Prior for Bayesian inference (Jeffreys unless otherwise stated).
  PriorKind prior = PriorKind::kJeffreys;
  /// When set, overrides `prior` with an arbitrary Beta prior — e.g. one
  /// fitted from workload feedback (WorkloadPriorBuilder, Section 3.3's
  /// "prior knowledge about the query workload").
  std::optional<BetaPrior> custom_prior;
  /// Retry schedule for transient statistics-store reads (synopsis/sample
  /// lookups that fail with kUnavailable).
  fault::RetryPolicy retry;

  /// The effective Beta prior.
  BetaPrior EffectivePrior() const {
    return custom_prior.value_or(BetaPrior::For(prior));
  }

  static RobustEstimatorConfig For(RobustnessLevel level);
};

/// Robust sample-based cardinality estimator with graceful degradation:
/// each estimate walks a cascade of progressively weaker evidence instead
/// of failing when statistics are missing or transiently unreadable.
///
///   tier 1  covering join synopsis   (the paper's primary path)
///   tier 2  per-table samples + AVI  (Section 3.5's fallback)
///   tier 3  histogram/AVI baseline   (the commercial-system estimate)
///   tier 4  default-wide posterior   (prior-only Beta, quantile at T)
///
/// Transient (kUnavailable) statistics reads are retried with
/// deterministic backoff before degrading; every degradation emits an
/// "estimator"/"degraded" trace event and an estimator.degraded.* counter.
class RobustSampleEstimator : public CardinalityEstimator {
 public:
  RobustSampleEstimator(const StatisticsCatalog* statistics,
                        RobustEstimatorConfig config)
      : statistics_(statistics),
        config_(config),
        histogram_fallback_(statistics) {}

  /// Estimate = cdf^{-1}(T) of the selectivity posterior, scaled by the
  /// root table's row count, degrading through the tiers above as
  /// evidence is unavailable. T is the context's, else the configured one.
  Result<double> EstimateRows(const CardinalityRequest& request,
                              const EstimationContext& context) override;

  /// The full posterior for a request, when a covering synopsis exists.
  /// This is what a least-expected-cost or crossover analysis would
  /// consume; EstimateRows is its cdf^{-1}(T) condensation.
  Result<SelectivityPosterior> EstimatePosterior(
      const CardinalityRequest& request,
      const EstimationContext& context) const;

  /// The (k, n) sample observation behind EstimatePosterior.
  struct Observation {
    uint64_t satisfying = 0;  ///< k
    uint64_t sample_size = 0;  ///< n
    uint64_t root_rows = 0;    ///< |root table|
  };
  Result<Observation> Observe(const CardinalityRequest& request,
                              const EstimationContext& context) const;

  /// The covering-synopsis posterior read at `quantiles` and at T, each
  /// through the inverse-Beta LRU (bit-identical to direct evaluation).
  /// A request without a predicate is refused before any statistics read.
  PosteriorQuantiles EstimatePosteriorQuantiles(
      const CardinalityRequest& request, const std::vector<double>& quantiles,
      const EstimationContext& context) override;

  /// Distinct count via the GEE estimator over the table's sample
  /// (Section 3.5's distinct-values extension).
  Result<double> EstimateDistinctValues(
      const std::string& table, const std::string& column,
      const EstimationContext& context) override;

  const RobustEstimatorConfig& config() const { return config_; }
  RobustEstimatorConfig* mutable_config() { return &config_; }
  void set_confidence_threshold(double t) { config_.confidence_threshold = t; }

  std::string name(const EstimationContext& context) const override;

  /// Tier-4 selectivity: quantile at the confidence threshold of the wide
  /// default posterior Beta(s0*n_eq, (1-s0)*n_eq), s0 = 1/3 (the classic
  /// range magic number). Exposed for tests.
  double DefaultWideSelectivity(const EstimationContext& context) const;

 private:
  // The call's T: the context's, else the configured one.
  double ThresholdOf(const EstimationContext& context) const {
    return context.confidence_threshold.value_or(
        config_.confidence_threshold);
  }

  // Degradation bookkeeping: one trace event + counter per tier drop.
  void RecordDegradation(const EstimationContext& context,
                         const char* tier_from, const char* tier_to,
                         const char* reason, const std::string& scope,
                         const char* counter) const;

  // perf.cache.{hit,miss} counter bump for one cache probe (`cache` is
  // "probe" or "beta"; also bumps the per-cache counter).
  void RecordCacheEvent(const EstimationContext& context, const char* cache,
                        bool hit) const;

  // Memoized EstimateAtConfidence(ThresholdOf(context)): the quantile via
  // the inverse-Beta LRU, bit-identical to the direct call.
  double InvertAtThreshold(const SelectivityPosterior& posterior,
                           const EstimationContext& context) const;

  const StatisticsCatalog* statistics_;
  RobustEstimatorConfig config_;
  HistogramEstimator histogram_fallback_;
  // unique_ptr so the estimator stays movable (the cache holds a mutex).
  std::unique_ptr<perf::InverseBetaCache> beta_cache_ =
      std::make_unique<perf::InverseBetaCache>();
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_ROBUST_SAMPLE_ESTIMATOR_H_
