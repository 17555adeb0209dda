// Section 6.1: estimation overhead. Measures wall-clock optimization time
// with the histogram module vs the robust sample-based module (500-tuple
// samples), plus the summary-storage comparison. The paper's unoptimized
// prototype saw ~30-40% more optimization time for sampling; our
// implementation memoizes estimates, so the gap here is what a tuned
// integration would pay.

// Usage: overhead_estimation [--json out.json] [google-benchmark flags]

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_json.h"
#include "core/database.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

using namespace robustqo;

namespace {

core::Database* SharedDb() {
  static core::Database* db = [] {
    auto* d = new core::Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.02;
    Status st = tpch::LoadTpch(d->catalog(), config);
    if (!st.ok()) std::abort();
    stats::StatisticsConfig stats_config;
    stats_config.sample_size = 500;
    d->UpdateStatistics(stats_config);
    return d;
  }();
  return db;
}

void BM_OptimizeSingleTableHistogram(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  for (auto _ : state) {
    auto plan = db->Plan(query, core::EstimatorKind::kHistogram);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeSingleTableHistogram);

void BM_OptimizeSingleTableRobust(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  for (auto _ : state) {
    auto plan = db->Plan(query, core::EstimatorKind::kRobustSample);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeSingleTableRobust);

void BM_OptimizeThreeJoinHistogram(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::ThreeTableJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(13.0);
  for (auto _ : state) {
    auto plan = db->Plan(query, core::EstimatorKind::kHistogram);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeThreeJoinHistogram);

void BM_OptimizeThreeJoinRobust(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::ThreeTableJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(13.0);
  for (auto _ : state) {
    auto plan = db->Plan(query, core::EstimatorKind::kRobustSample);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeThreeJoinRobust);

// Raw estimator-call cost, isolated from plan enumeration.
// The paper's prototype "lacks even basic optimizations such as memoizing"
// (Section 6.1); this pair quantifies what memoization buys.
void BM_OptimizeRobustNoMemo(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::ThreeTableJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(13.0);
  opt::OptimizerOptions options;
  options.enable_estimate_memo = false;
  for (auto _ : state) {
    auto plan = db->Plan(query, core::EstimatorKind::kRobustSample, options);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizeRobustNoMemo);

void BM_EstimateCallHistogram(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  stats::CardinalityRequest request{{"lineitem"},
                                    query.tables[0].predicate};
  for (auto _ : state) {
    auto rows = db->histogram_estimator()->EstimateRows(request, {});
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_EstimateCallHistogram);

void BM_EstimateCallRobust(benchmark::State& state) {
  core::Database* db = SharedDb();
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  stats::CardinalityRequest request{{"lineitem"},
                                    query.tables[0].predicate};
  for (auto _ : state) {
    auto rows = db->robust_estimator()->EstimateRows(request, {});
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_EstimateCallRobust);

// The numeric kernel of every robust estimate: one inverse-beta-cdf
// evaluation. Sub-microsecond, i.e. negligible next to predicate
// evaluation over the sample.
void BM_BetaInverseCdf(benchmark::State& state) {
  stats::SelectivityPosterior posterior(17, 500);
  double t = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(posterior.EstimateAtConfidence(t));
    t += 0.09;
    if (t >= 1.0) t -= 0.94;
  }
}
BENCHMARK(BM_BetaInverseCdf);

}  // namespace

int main(int argc, char** argv) {
  // Strip --json before google-benchmark sees (and rejects) it.
  const std::string json_path = bench::ConsumeJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Storage-parity report (Section 6.1's space discussion).
  core::Database* db = SharedDb();
  const double summary_kib =
      static_cast<double>(db->statistics()->ApproximateSummaryBytes()) / 1024.0;
  std::printf(
      "\nsummary-statistics storage: %.1f KiB total (histograms + samples + "
      "join synopses), lineitem sample = 500 tuples x %zu numeric columns\n",
      summary_kib,
      db->catalog()->GetTable("lineitem")->schema().num_columns());
  std::printf("paper: 500-tuple sample ~ space parity with 250-bucket "
              "histograms per attribute; ~30-40%% optimization-time "
              "overhead for an unoptimized prototype\n");

  if (!json_path.empty()) {
    // Per-benchmark timings go through google-benchmark's own
    // --benchmark_format=json; this report carries the storage summary.
    bench::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "overhead_estimation");
    w.Field("summary_statistics_kib", summary_kib);
    w.EndObject();
    if (!bench::WriteJsonFile(json_path, w.str())) return 2;
  }
  return 0;
}
