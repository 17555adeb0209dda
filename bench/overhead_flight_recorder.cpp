// Flight-recorder overhead: the cost of per-request lifecycle tracing,
// the black-box ring buffer, and the SLO/regret watchdog added on top of
// the serving layer's admit/plan/execute/reduce path.
//
// The enforced contract (docs/OBSERVABILITY.md): a traffic run with the
// recorder enabled — every request gets a Tracer, a span tree, an SLO
// observation and an Offer() against the retention policy — stays under
// 5% overhead versus the identical run with request tracing off. Dump
// rendering (`.blackbox json` / `.blackbox trace`) happens on demand, so
// it is reported as an informational absolute cost, not gated.
//
// Usage: overhead_flight_recorder [--json out.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_json.h"
#include "core/database.h"
#include "obs/flight_recorder.h"
#include "obs/fingerprint_ledger.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/traffic_harness.h"

using namespace robustqo;

namespace {

constexpr int kRounds = 5;
constexpr int kItersPerRound = 3;

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

std::unique_ptr<core::Database> MakeReadingsDatabase() {
  auto db = std::make_unique<core::Database>();
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < 20000; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  if (!db->catalog()->AddTable(std::move(table)).ok()) std::abort();
  db->UpdateStatistics();
  return db;
}

workload::TrafficConfig MakeTraffic() {
  workload::TrafficConfig config;
  config.clients = 48;
  config.duration_seconds = 10.0;
  config.think_seconds = 5.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  config.thresholds = {0.0, 0.95};
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ConsumeJsonFlag(&argc, argv);
  const workload::TrafficConfig traffic = MakeTraffic();

  // Baseline: the serving layer with request tracing off (the recorder's
  // enabled flag gates tracer creation per request, so this is exactly
  // the pre-flight-recorder execute path).
  std::unique_ptr<core::Database> base_db = MakeReadingsDatabase();
  server::ServerConfig base_config;
  base_config.admission.max_concurrent = 8;
  base_config.admission.max_queue_depth = 128;
  server::QueryService base_service(base_db.get(), base_config);
  auto run_base = [&] {
    const workload::TrafficReport report =
        workload::RunTraffic(&base_service, traffic);
    if (report.completed == 0) std::abort();
  };

  // Instrumented: per-request tracing + ring-buffer retention + SLO/regret
  // observation on every completed request.
  std::unique_ptr<core::Database> rec_db = MakeReadingsDatabase();
  server::ServerConfig rec_config = base_config;
  rec_config.flight_recorder.enabled = true;
  server::QueryService rec_service(rec_db.get(), rec_config);
  auto run_recorded = [&] {
    const workload::TrafficReport report =
        workload::RunTraffic(&rec_service, traffic);
    if (report.completed == 0) std::abort();
  };

  // Warm both services (statistics, plan caches, allocator) untimed.
  run_base();
  run_recorded();

  const double baseline = BestRoundSeconds(run_base);
  const double with_recorder = BestRoundSeconds(run_recorded);
  const double recorder_overhead = with_recorder / baseline - 1.0;

  // On-demand dump rendering on the recorder the loop just filled.
  std::string blackbox;
  const double blackbox_render = BestRoundSeconds([&] {
                                   blackbox =
                                       rec_service.flight_recorder()->ToJson();
                                 }) /
                                 kItersPerRound;
  std::string slo_report;
  const double slo_render = BestRoundSeconds([&] {
                              slo_report =
                                  rec_service.ledger()->SloReportText();
                              if (slo_report.empty()) std::abort();
                            }) /
                            kItersPerRound;

  std::printf("traffic run (%llu clients), best of %d rounds x %d "
              "iterations:\n",
              static_cast<unsigned long long>(traffic.clients), kRounds,
              kItersPerRound);
  std::printf("  tracing off:          %.4f s\n", baseline);
  std::printf("  recorder + SLO:       %.4f s  (%+.1f%%)\n", with_recorder,
              recorder_overhead * 100.0);
  std::printf("  blackbox JSON render: %.1f us/call (informational, "
              "%zu bytes, %zu traces)\n",
              blackbox_render * 1e6, blackbox.size(),
              rec_service.flight_recorder()->size());
  std::printf("  SLO report render:    %.1f us/call (informational, "
              "%zu bytes)\n",
              slo_render * 1e6, slo_report.size());

  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "overhead_flight_recorder");
    w.Field("baseline_seconds", baseline);
    w.Field("with_recorder_seconds", with_recorder);
    w.Field("recorder_overhead", recorder_overhead);
    w.Field("blackbox_render_seconds", blackbox_render);
    w.Field("slo_report_render_seconds", slo_render);
    w.EndObject();
    if (!bench::WriteJsonFile(json_path, w.str())) return 2;
  }

  // The enforced contract. 5% is the documented bound; the spans and
  // retention bookkeeping are a small constant per request, so the
  // measured value is normally a few percent with headroom for timer
  // noise.
  if (recorder_overhead >= 0.05) {
    std::printf("FAIL: flight-recorder overhead %.1f%% >= 5%%\n",
                recorder_overhead * 100.0);
    return 1;
  }
  std::printf("PASS: flight-recorder overhead under the 5%% bound\n");
  return 0;
}
