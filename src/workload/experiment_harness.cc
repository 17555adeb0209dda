#include "workload/experiment_harness.h"

#include <cmath>

#include "core/report.h"
#include "stats_math/descriptive.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace workload {

std::vector<EstimatorSetting> PaperSettings() {
  return {
      {"T=5%", core::EstimatorKind::kRobustSample, 0.05},
      {"T=20%", core::EstimatorKind::kRobustSample, 0.20},
      {"T=50%", core::EstimatorKind::kRobustSample, 0.50},
      {"T=80%", core::EstimatorKind::kRobustSample, 0.80},
      {"T=95%", core::EstimatorKind::kRobustSample, 0.95},
      {"Histograms", core::EstimatorKind::kHistogram, 0.0},
  };
}

SweepResult QuerySweepExperiment::Run(const SweepConfig& config) {
  RQO_CHECK(!config.params.empty());
  RQO_CHECK(config.repetitions >= 1);

  SweepResult result;
  result.params = config.params;
  result.true_selectivity.reserve(config.params.size());
  for (double p : config.params) result.true_selectivity.push_back(probe_(p));
  result.mean_by_point.resize(config.params.size());

  // Histograms depend only on the data — build once.
  db_->statistics()->BuildAllHistograms(config.statistics.histogram_buckets);

  obs::Counter* metric_plans = nullptr;
  obs::Counter* metric_execs = nullptr;
  obs::Counter* metric_cache_hits = nullptr;
  if (config.metrics != nullptr) {
    metric_plans = config.metrics->GetCounter("harness.plans");
    metric_execs = config.metrics->GetCounter("harness.executions");
    metric_cache_hits = config.metrics->GetCounter("harness.exec_cache_hits");
  }

  // Deterministic execution cache: (plan label, param index) -> result.
  // Plans with the same structure and parameter execute identically, so
  // both the simulated time and the SPJ result size are cacheable.
  struct CachedRun {
    double seconds = 0.0;
    uint64_t spj_rows = 0;
  };
  std::map<std::string, CachedRun> exec_cache;
  // First-cell answer per parameter, for cross-plan verification.
  std::map<size_t, double> answers;
  auto execute_cached = [&](const opt::PlannedQuery& plan,
                            size_t param_idx) -> CachedRun {
    const std::string key =
        plan.label + "#" + StrPrintf("%zu", param_idx);
    auto it = exec_cache.find(key);
    if (it != exec_cache.end()) {
      if (metric_cache_hits != nullptr) metric_cache_hits->Increment();
      return it->second;
    }
    // The harness runs with no faults armed and no governor limits, so an
    // execution failure here is a programming error, not a robustness event.
    core::ExecutionResult run = db_->ExecutePlan(plan).value();
    if (metric_execs != nullptr) metric_execs->Increment();
    if (config.verify_answers && run.rows.num_rows() > 0) {
      const double answer = run.rows.ValueAt(0, 0).NumericValue();
      auto [ans_it, inserted] = answers.emplace(param_idx, answer);
      RQO_CHECK_MSG(
          inserted || std::abs(ans_it->second - answer) <=
                          1e-6 * std::max(1.0, std::abs(answer)),
          ("plan " + plan.label + " changed the query answer").c_str());
    }
    const CachedRun cached{run.simulated_seconds, run.spj_rows};
    exec_cache.emplace(key, cached);
    return cached;
  };

  // times[setting][param] -> samples across repetitions.
  std::map<std::string, std::vector<std::vector<double>>> times;
  for (const EstimatorSetting& s : config.settings) {
    times[s.label].resize(config.params.size());
  }
  std::map<std::string, std::map<std::string, int>> plan_counts;
  // Per-setting SPJ-cardinality q-errors across all (param, rep) plans.
  std::map<std::string, std::vector<double>> q_errors;

  for (size_t rep = 0; rep < config.repetitions; ++rep) {
    stats::StatisticsConfig stat_cfg = config.statistics;
    stat_cfg.seed = config.statistics.seed + rep * 7919;
    db_->statistics()->BuildAllSamples(stat_cfg);

    for (size_t pi = 0; pi < config.params.size(); ++pi) {
      const opt::QuerySpec query = factory_(config.params[pi]);
      for (const EstimatorSetting& setting : config.settings) {
        const bool is_histogram =
            setting.kind == core::EstimatorKind::kHistogram;
        // Histograms never change across repetitions; evaluate once.
        if (is_histogram && rep > 0) continue;
        opt::OptimizerOptions options;
        if (!is_histogram) {
          options.confidence_threshold_hint = setting.confidence_threshold;
        }
        Result<opt::PlannedQuery> plan = db_->Plan(query, setting.kind,
                                                   options);
        RQO_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
        if (metric_plans != nullptr) metric_plans->Increment();
        const CachedRun run = execute_cached(plan.value(), pi);
        times[setting.label][pi].push_back(run.seconds);
        q_errors[setting.label].push_back(
            core::QError(plan.value().estimated_spj_rows,
                         static_cast<double>(run.spj_rows)));
        ++plan_counts[setting.label][plan.value().label];
      }
    }
  }

  for (const EstimatorSetting& setting : config.settings) {
    std::vector<double> all;
    for (size_t pi = 0; pi < config.params.size(); ++pi) {
      const std::vector<double>& samples = times[setting.label][pi];
      RQO_CHECK(!samples.empty());
      result.mean_by_point[pi][setting.label] = math::Mean(samples);
      // Histogram plans are deterministic: weight each point equally by
      // replicating its single measurement (keeps aggregates comparable).
      if (setting.kind == core::EstimatorKind::kHistogram) {
        for (size_t r = 0; r < config.repetitions; ++r) {
          all.push_back(samples[0]);
        }
      } else {
        all.insert(all.end(), samples.begin(), samples.end());
      }
    }
    SettingAggregate agg;
    agg.mean_seconds = math::Mean(all);
    agg.std_dev_seconds = math::PopulationStdDev(all);
    agg.p95_seconds = math::Percentile(all, 0.95);
    const core::QErrorSummary q =
        core::SummarizeQErrors(q_errors[setting.label]);
    agg.max_q_error = q.max_q;
    agg.median_q_error = q.median_q;
    agg.plan_counts = plan_counts[setting.label];
    result.overall[setting.label] = agg;
  }
  return result;
}

std::string FormatSweepResult(const SweepResult& result,
                              const std::string& title) {
  std::string out = "=== " + title + " ===\n\n";
  out += "-- (a) selectivity vs average execution time (simulated s) --\n";
  out += StrPrintf("%-12s", "sel%");
  std::vector<std::string> labels;
  for (const auto& [label, agg] : result.overall) labels.push_back(label);
  // Keep the natural T-order if present.
  std::vector<std::string> ordered;
  for (const char* want :
       {"T=5%", "T=20%", "T=50%", "T=80%", "T=95%", "Histograms"}) {
    for (const auto& l : labels) {
      if (l == want) ordered.push_back(l);
    }
  }
  for (const auto& l : labels) {
    bool seen = false;
    for (const auto& o : ordered) {
      if (o == l) seen = true;
    }
    if (!seen) ordered.push_back(l);
  }
  for (const auto& l : ordered) out += StrPrintf("%12s", l.c_str());
  out += "\n";
  for (size_t pi = 0; pi < result.params.size(); ++pi) {
    out += StrPrintf("%-12.4f", result.true_selectivity[pi] * 100.0);
    for (const auto& l : ordered) {
      auto it = result.mean_by_point[pi].find(l);
      out += it == result.mean_by_point[pi].end()
                 ? StrPrintf("%12s", "-")
                 : StrPrintf("%12.3f", it->second);
    }
    out += "\n";
  }
  out += "\n-- (b) performance vs predictability --\n";
  out += StrPrintf("%-12s %14s %14s %12s %9s %9s  %s\n", "setting",
                   "avg time (s)", "std dev (s)", "p95 (s)", "maxQ", "medQ",
                   "plans chosen");
  for (const auto& l : ordered) {
    const SettingAggregate& agg = result.overall.at(l);
    std::vector<std::string> plans;
    for (const auto& [plan, count] : agg.plan_counts) {
      plans.push_back(StrPrintf("%s x%d", plan.c_str(), count));
    }
    out += StrPrintf("%-12s %14.3f %14.3f %12.3f %9.2f %9.2f  %s\n",
                     l.c_str(), agg.mean_seconds, agg.std_dev_seconds,
                     agg.p95_seconds, agg.max_q_error, agg.median_q_error,
                     StrJoin(plans, "; ").c_str());
  }
  return out;
}

}  // namespace workload
}  // namespace robustqo
