// Observability overhead: plan + execute a three-table join repeatedly
// with (a) no sinks attached, (b) a metrics registry attached, and (c) a
// tracer attached, and compare best-of-rounds wall time. The contract the
// obs layer is built around (docs/OBSERVABILITY.md):
//   * metrics attached: < 5% overhead (counter bumps on the hot paths);
//   * nothing attached: one null-pointer test per instrumented site.
// Exits non-zero when the metrics overhead bound is violated.
//
// Usage: overhead_observability [--json out.json]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/tpch_gen.h"
#include "util/stopwatch.h"
#include "workload/scenarios.h"

using namespace robustqo;

namespace {

constexpr int kRounds = 7;
constexpr int kItersPerRound = 12;

// Best-of-rounds wall seconds for `body` run kItersPerRound times.
template <typename Fn>
double BestRoundSeconds(Fn&& body) {
  double best = 1e100;
  Stopwatch watch;
  for (int round = 0; round < kRounds; ++round) {
    watch.Restart();
    for (int i = 0; i < kItersPerRound; ++i) body();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ConsumeJsonFlag(&argc, argv);
  core::Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.02;
  if (!tpch::LoadTpch(db.catalog(), config).ok()) return 2;
  stats::StatisticsConfig stats_config;
  stats_config.sample_size = 500;
  db.UpdateStatistics(stats_config);

  workload::ThreeTableJoinScenario scenario;
  const opt::QuerySpec query = scenario.MakeQuery(13.0);

  auto plan_and_execute = [&] {
    auto plan = db.Plan(query, core::EstimatorKind::kRobustSample);
    if (!plan.ok()) std::abort();
    core::ExecutionResult result = db.ExecutePlan(plan.value()).value();
    if (result.rows.num_rows() == 0 && result.spj_rows == 0) {
      // Keep the optimizer honest; never expected at this parameter.
      std::abort();
    }
  };

  // Warm up caches (statistics, allocator) before timing anything.
  plan_and_execute();

  const double baseline = BestRoundSeconds(plan_and_execute);

  obs::MetricsRegistry metrics;
  db.SetMetrics(&metrics);
  const double with_metrics = BestRoundSeconds(plan_and_execute);
  db.SetMetrics(nullptr);

  obs::Tracer tracer;
  db.SetTracer(&tracer);
  const double with_tracer = BestRoundSeconds([&] {
    plan_and_execute();
    tracer.Clear();  // per-query tracer lifecycle, as EXPLAIN ANALYZE uses it
  });
  db.SetTracer(nullptr);

  const double metrics_overhead = with_metrics / baseline - 1.0;
  const double tracer_overhead = with_tracer / baseline - 1.0;

  std::printf("plan+execute, best of %d rounds x %d iterations:\n", kRounds,
              kItersPerRound);
  std::printf("  no sinks:         %.4f s\n", baseline);
  std::printf("  metrics attached: %.4f s  (%+.1f%%)\n", with_metrics,
              metrics_overhead * 100.0);
  std::printf("  tracer attached:  %.4f s  (%+.1f%%, informational — "
              "EXPLAIN ANALYZE path)\n",
              with_tracer, tracer_overhead * 100.0);

  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "overhead_observability");
    w.Field("baseline_seconds", baseline);
    w.Field("with_metrics_seconds", with_metrics);
    w.Field("with_tracer_seconds", with_tracer);
    w.Field("metrics_overhead", metrics_overhead);
    w.Field("tracer_overhead", tracer_overhead);
    w.EndObject();
    if (!bench::WriteJsonFile(json_path, w.str())) return 2;
  }

  // The enforced contract. 5% is the documented bound; the measured value
  // is normally well under 1% and the headroom absorbs timer noise.
  if (metrics_overhead >= 0.05) {
    std::printf("FAIL: metrics overhead %.1f%% >= 5%%\n",
                metrics_overhead * 100.0);
    return 1;
  }
  std::printf("PASS: metrics overhead under the 5%% bound\n");
  return 0;
}
