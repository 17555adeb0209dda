#include "statistics/robust_sample_estimator.h"

#include <optional>
#include <vector>

#include "expr/analysis.h"
#include "perf/batch_eval.h"
#include "perf/fingerprint.h"
#include "statistics/distinct_estimator.h"
#include "statistics/magic.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace stats {

namespace {

/// Equivalent sample size of the tier-4 "default wide" posterior: the
/// prior-only Beta the estimator falls back to when a conjunct has no
/// synopsis, no sample and no histogram. Small n_eq = wide posterior, so
/// conservative thresholds assume many rows.
constexpr double kDefaultEquivalentN = 2.0;

std::string JoinTableNames(const std::set<std::string>& tables) {
  std::vector<std::string> names(tables.begin(), tables.end());
  return StrJoin(names, ",");
}

// Whether at least one conjunct of `pred` is backed by a real histogram on
// `table` — the evidence bar for the tier-3 fallback. (The histogram
// estimator itself never fails: it papers over missing histograms with
// magic constants, which is exactly what tier 4 must replace with the wide
// posterior.)
bool HasHistogramEvidence(const StatisticsCatalog& statistics,
                          const std::string& table,
                          const expr::ExprPtr& pred) {
  for (const auto& conjunct : expr::SplitConjuncts(pred)) {
    auto range = expr::TryExtractColumnRange(conjunct);
    if (range.has_value() &&
        statistics.GetHistogram(table, range->column) != nullptr) {
      return true;
    }
  }
  return false;
}

}  // namespace

double ConfidenceThresholdFor(RobustnessLevel level) {
  switch (level) {
    case RobustnessLevel::kAggressive:
      return 0.50;
    case RobustnessLevel::kModerate:
      return 0.80;
    case RobustnessLevel::kConservative:
      return 0.95;
  }
  return 0.80;
}

RobustEstimatorConfig RobustEstimatorConfig::For(RobustnessLevel level) {
  RobustEstimatorConfig config;
  config.confidence_threshold = ConfidenceThresholdFor(level);
  return config;
}

void RobustSampleEstimator::RecordDegradation(
    const EstimationContext& context, const char* tier_from,
    const char* tier_to, const char* reason, const std::string& scope,
    const char* counter) const {
  if (context.metrics != nullptr) {
    context.metrics->GetCounter(counter)->Increment();
  }
  if (context.tracer != nullptr) {
    context.tracer->Event("estimator", "degraded",
                          {{"tier_from", tier_from},
                           {"tier_to", tier_to},
                           {"reason", reason},
                           {"tables", scope}});
  }
}

void RobustSampleEstimator::RecordCacheEvent(const EstimationContext& context,
                                             const char* cache,
                                             bool hit) const {
  if (context.metrics != nullptr) {
    context.metrics->GetCounter(hit ? "perf.cache.hit" : "perf.cache.miss")
        ->Increment();
    context.metrics
        ->GetCounter(std::string(hit ? "perf.cache.hit." : "perf.cache.miss.") +
                     cache)
        ->Increment();
  }
}

double RobustSampleEstimator::InvertAtThreshold(
    const SelectivityPosterior& posterior,
    const EstimationContext& context) const {
  const double threshold = ThresholdOf(context);
  RQO_CHECK_MSG(threshold > 0.0 && threshold < 1.0,
                "confidence threshold must be in (0, 1)");
  bool hit = false;
  const math::BetaDistribution& d = posterior.distribution();
  const double value =
      beta_cache_->Value(d.alpha(), d.beta(), threshold, &hit);
  // Inside an optimizer call, classify hit/miss per query (first inversion
  // of a key this query = miss, repeats = hits) rather than by global LRU
  // residency, so EXPLAIN ANALYZE counters don't depend on what ran
  // before. The returned value comes from the LRU either way.
  if (context.probe_cache != nullptr) {
    hit = context.probe_cache->NoteBetaInversion(d.alpha(), d.beta(),
                                                 threshold);
  }
  RecordCacheEvent(context, "beta", hit);
  return value;
}

double RobustSampleEstimator::DefaultWideSelectivity(
    const EstimationContext& context) const {
  const double s0 = kMagicUnknownSelectivity;
  const double n_eq = kDefaultEquivalentN;
  // Prior-only posterior (no evidence): Beta(s0*n_eq, (1-s0)*n_eq) has mean
  // s0 but the weight of only ~n_eq observations, so the quantile at T
  // spreads far from the mean — conservative settings assume many rows.
  SelectivityPosterior wide(0, 0, BetaPrior{s0 * n_eq, (1.0 - s0) * n_eq});
  return InvertAtThreshold(wide, context);
}

Result<RobustSampleEstimator::Observation> RobustSampleEstimator::Observe(
    const CardinalityRequest& request,
    const EstimationContext& context) const {
  Result<const JoinSynopsis*> synopsis = fault::RetryWithBackoff(
      config_.retry,
      [&] { return statistics_->TryFindCoveringSynopsis(request.tables); },
      nullptr, context.metrics);
  if (!synopsis.ok()) return synopsis.status();
  Observation obs;
  obs.sample_size = synopsis.value()->size();
  obs.root_rows = synopsis.value()->root_row_count();
  if (request.predicate == nullptr) {
    obs.satisfying = synopsis.value()->size();
    return obs;
  }
  // The probe is memoized per (synopsis, predicate fingerprint): the join
  // enumerator re-costs the same conjunct set under every join order, and
  // only the first costing scans the synopsis.
  const std::string source = "synopsis:" + JoinTableNames(request.tables);
  const uint64_t fingerprint = perf::FingerprintExpr(*request.predicate);
  if (context.probe_cache != nullptr) {
    std::optional<perf::ProbeCount> cached =
        context.probe_cache->Lookup(source, fingerprint);
    if (cached.has_value() && cached->sample_size == obs.sample_size) {
      RecordCacheEvent(context, "probe", true);
      obs.satisfying = cached->satisfying;
      return obs;
    }
    RecordCacheEvent(context, "probe", false);
  }
  obs.satisfying =
      perf::BatchCountSatisfying(*request.predicate, synopsis.value()->rows());
  if (context.probe_cache != nullptr) {
    context.probe_cache->Insert(source, fingerprint,
                                {obs.satisfying, obs.sample_size});
  }
  return obs;
}

Result<SelectivityPosterior> RobustSampleEstimator::EstimatePosterior(
    const CardinalityRequest& request,
    const EstimationContext& context) const {
  Result<Observation> obs = Observe(request, context);
  if (!obs.ok()) return obs.status();
  return SelectivityPosterior(obs.value().satisfying,
                              obs.value().sample_size, config_.EffectivePrior());
}

PosteriorQuantiles RobustSampleEstimator::EstimatePosteriorQuantiles(
    const CardinalityRequest& request, const std::vector<double>& quantiles,
    const EstimationContext& context) {
  PosteriorQuantiles out;
  out.threshold = ThresholdOf(context);
  if (request.predicate == nullptr) {
    out.status = Status::InvalidArgument("request has no predicate");
    return out;
  }
  Result<SelectivityPosterior> posterior = EstimatePosterior(request, context);
  if (!posterior.ok()) {
    out.status = posterior.status();
    return out;
  }
  // All cdf^{-1} evaluations go through the shared inverse-Beta LRU, so a
  // re-planned fingerprint re-reads its whole grid from cache.
  const math::BetaDistribution& d = posterior.value().distribution();
  out.at_threshold = beta_cache_->Value(d.alpha(), d.beta(), out.threshold);
  for (double q : quantiles) {
    out.selectivity.push_back(beta_cache_->Value(d.alpha(), d.beta(), q));
  }
  return out;
}

Result<double> RobustSampleEstimator::EstimateRows(
    const CardinalityRequest& request, const EstimationContext& context) {
  const storage::Catalog& catalog = statistics_->catalog();
  auto root = catalog.FindRootTable(request.tables);
  if (!root.ok()) return root.status();
  const double root_rows =
      static_cast<double>(catalog.GetTable(root.value())->num_rows());
  if (request.predicate == nullptr) return root_rows;
  const double threshold = ThresholdOf(context);

  // Tier 1: a covering join synopsis (transient read failures retried with
  // deterministic backoff inside Observe).
  Result<Observation> obs = Observe(request, context);
  if (obs.ok()) {
    const BetaPrior prior = config_.EffectivePrior();
    SelectivityPosterior posterior(obs.value().satisfying,
                                   obs.value().sample_size, prior);
    const double selectivity = InvertAtThreshold(posterior, context);
    if (context.tracer != nullptr) {
      context.tracer->Event(
          "estimator", "robust",
          {{"tables", JoinTableNames(request.tables)},
           {"predicate", request.predicate->ToString()},
           {"source", "synopsis"},
           {"fingerprint",
            robustqo::obs::AttrU64(perf::FingerprintExpr(*request.predicate))},
           {"k", robustqo::obs::AttrU64(obs.value().satisfying)},
           {"n", robustqo::obs::AttrU64(obs.value().sample_size)},
           {"posterior_alpha", robustqo::obs::AttrF(
                static_cast<double>(obs.value().satisfying) + prior.alpha)},
           {"posterior_beta",
            robustqo::obs::AttrF(static_cast<double>(obs.value().sample_size -
                                                     obs.value().satisfying) +
                                 prior.beta)},
           {"threshold", robustqo::obs::AttrF(threshold)},
           {"selectivity", robustqo::obs::AttrF(selectivity)},
           {"est_rows", robustqo::obs::AttrF(selectivity * root_rows)}});
    }
    return selectivity * root_rows;
  }
  const bool synopsis_unavailable =
      obs.status().code() == StatusCode::kUnavailable;

  RecordDegradation(context, "synopsis", "table-sample",
                    synopsis_unavailable ? "unavailable" : "missing",
                    JoinTableNames(request.tables),
                    synopsis_unavailable
                        ? "estimator.degraded.synopsis_unavailable"
                        : "estimator.degraded.synopsis_miss");

  // Tier 2 (Section 3.5): independent per-table samples + AVI +
  // containment. Each table's predicate slice is estimated robustly from
  // that table's own sample; cross-table independence is then assumed.
  // Tables whose sample is missing or unreadable degrade further on their
  // own: histogram/AVI baseline (tier 3), then the default-wide posterior
  // (tier 4).
  //
  // Two passes, both in table order: the first splits the predicate,
  // resolves each sample (fault sites + retries) and counts it (probe-cache
  // lookup, else a sample scan); the second fills the cache on a miss,
  // inverts the posteriors, emits traces and metrics and forms the
  // selectivity product.
  struct TableProbe {
    std::string table;
    std::string source;  // the probe-cache source, "sample:" + table
    expr::ExprPtr pred;
    size_t num_conjuncts = 0;
    uint64_t fingerprint = 0;
    const TableSample* sample = nullptr;
    bool sample_unavailable = false;
    bool cache_hit = false;
    uint64_t k = 0;
  };
  // The predicate's conjuncts with the columns each reads, split once for
  // every table.
  struct Conjunct {
    expr::ExprPtr expr;
    std::set<std::string> columns;
  };
  std::vector<Conjunct> conjuncts;
  for (expr::ExprPtr& conjunct : expr::SplitConjuncts(request.predicate)) {
    std::set<std::string> columns;
    conjunct->CollectColumns(&columns);
    conjuncts.push_back({std::move(conjunct), std::move(columns)});
  }
  std::vector<TableProbe> probes;
  probes.reserve(request.tables.size());
  for (const std::string& table : request.tables) {
    const storage::Table* t = catalog.GetTable(table);
    std::vector<expr::ExprPtr> mine;
    for (const Conjunct& conjunct : conjuncts) {
      bool all_mine = !conjunct.columns.empty();
      for (const std::string& c : conjunct.columns) {
        if (!t->schema().HasColumn(c)) {
          all_mine = false;
          break;
        }
      }
      if (all_mine) mine.push_back(conjunct.expr);
    }
    if (mine.empty()) continue;
    TableProbe probe;
    probe.table = table;
    probe.num_conjuncts = mine.size();
    probe.pred = expr::And(std::move(mine));

    Result<const TableSample*> sample = fault::RetryWithBackoff(
        config_.retry, [&] { return statistics_->TryGetSample(table); },
        nullptr, context.metrics);
    if (sample.ok()) {
      probe.sample = sample.value();
      probe.fingerprint = perf::FingerprintExpr(*probe.pred);
      if (context.probe_cache != nullptr) {
        probe.source = std::string("sample:").append(table);
        std::optional<perf::ProbeCount> cached =
            context.probe_cache->Lookup(probe.source, probe.fingerprint);
        probe.cache_hit = cached.has_value() &&
                          cached->sample_size == probe.sample->size();
        if (probe.cache_hit) probe.k = cached->satisfying;
        RecordCacheEvent(context, "probe", probe.cache_hit);
      }
      if (!probe.cache_hit) {
        probe.k =
            perf::BatchCountSatisfying(*probe.pred, probe.sample->rows());
      }
    } else {
      probe.sample_unavailable =
          sample.status().code() == StatusCode::kUnavailable;
    }
    probes.push_back(std::move(probe));
  }

  double selectivity = 1.0;
  for (const TableProbe& probe : probes) {
    const std::string& table = probe.table;
    const expr::ExprPtr& table_pred = probe.pred;
    if (probe.sample != nullptr) {
      // A hit already holds this (k, n).
      if (context.probe_cache != nullptr && !probe.cache_hit) {
        context.probe_cache->Insert(probe.source, probe.fingerprint,
                                    {probe.k, probe.sample->size()});
      }
      const uint64_t k = probe.k;
      const BetaPrior prior = config_.EffectivePrior();
      SelectivityPosterior posterior(k, probe.sample->size(), prior);
      const double factor = InvertAtThreshold(posterior, context);
      selectivity *= factor;
      if (context.tracer != nullptr) {
        context.tracer->Event(
            "estimator", "robust",
            {{"tables", table},
             {"predicate", table_pred->ToString()},
             {"source", "table-sample"},
             {"fingerprint", robustqo::obs::AttrU64(probe.fingerprint)},
             {"k", robustqo::obs::AttrU64(k)},
             {"n", robustqo::obs::AttrU64(probe.sample->size())},
             {"posterior_alpha",
              robustqo::obs::AttrF(static_cast<double>(k) + prior.alpha)},
             {"posterior_beta",
              robustqo::obs::AttrF(
                  static_cast<double>(probe.sample->size() - k) +
                  prior.beta)},
             {"threshold", robustqo::obs::AttrF(threshold)},
             {"selectivity", robustqo::obs::AttrF(factor)}});
      }
      continue;
    }
    const bool sample_unavailable = probe.sample_unavailable;
    if (context.metrics != nullptr) {
      context.metrics
          ->GetCounter(sample_unavailable
                           ? "estimator.degraded.sample_unavailable"
                           : "estimator.degraded.sample_miss")
          ->Increment();
    }

    // Tier 3: the histogram/AVI baseline over the same statistics store
    // (only when a real histogram backs at least one conjunct — the
    // histogram estimator itself silently substitutes magic constants).
    if (HasHistogramEvidence(*statistics_, table, table_pred)) {
      Result<double> hist_factor =
          histogram_fallback_.EstimateTableSelectivity(table, table_pred);
      if (hist_factor.ok()) {
        selectivity *= hist_factor.value();
        RecordDegradation(context, "table-sample", "histogram-avi",
                          sample_unavailable ? "unavailable" : "missing",
                          table, "estimator.degraded.to_histogram");
        if (context.tracer != nullptr) {
          context.tracer->Event(
              "estimator", "robust",
              {{"tables", table},
               {"predicate", table_pred->ToString()},
               {"source", "histogram-avi"},
               {"fingerprint",
                robustqo::obs::AttrU64(perf::FingerprintExpr(*table_pred))},
               {"threshold", robustqo::obs::AttrF(threshold)},
               {"selectivity", robustqo::obs::AttrF(hist_factor.value())}});
        }
        continue;
      }
    }

    // Tier 4: default selectivity from the wide prior-only posterior, one
    // factor per stat-less conjunct.
    const double wide = DefaultWideSelectivity(context);
    for (size_t i = 0; i < probe.num_conjuncts; ++i) selectivity *= wide;
    RecordDegradation(context, "histogram-avi", "default-wide", "missing",
                      table, "estimator.degraded.to_default");
    if (context.tracer != nullptr) {
      context.tracer->Event(
          "estimator", "robust",
          {{"tables", table},
           {"source", "default-wide"},
           {"conjuncts", robustqo::obs::AttrU64(probe.num_conjuncts)},
           {"threshold", robustqo::obs::AttrF(threshold)},
           {"selectivity", robustqo::obs::AttrF(wide)}});
    }
  }
  if (context.tracer != nullptr) {
    context.tracer->Event("estimator", "robust",
                          {{"tables", JoinTableNames(request.tables)},
                           {"predicate", request.predicate->ToString()},
                           {"source", "independence"},
                           {"fingerprint", robustqo::obs::AttrU64(
                                perf::FingerprintExpr(*request.predicate))},
                           {"threshold", robustqo::obs::AttrF(threshold)},
                           {"selectivity", robustqo::obs::AttrF(selectivity)},
                           {"est_rows",
                            robustqo::obs::AttrF(selectivity * root_rows)}});
  }
  return selectivity * root_rows;
}

Result<double> RobustSampleEstimator::EstimateDistinctValues(
    const std::string& table, const std::string& column,
    const EstimationContext& context) {
  Result<const TableSample*> sample = fault::RetryWithBackoff(
      config_.retry, [&] { return statistics_->TryGetSample(table); },
      nullptr, context.metrics);
  if (!sample.ok()) return sample.status();
  Result<SampleFrequencyProfile> profile =
      ProfileSampleColumn(*sample.value(), column);
  if (!profile.ok()) return profile.status();
  // With-replacement draws can repeat rows; the population the profile
  // scales to is still the base table size.
  return EstimateDistinct(profile.value(), sample.value()->source_row_count(),
                          DistinctMethod::kGee);
}

std::string RobustSampleEstimator::name(
    const EstimationContext& context) const {
  return StrPrintf("robust-sample@T=%.0f%%", ThresholdOf(context) * 100.0);
}

}  // namespace stats
}  // namespace robustqo
