// Golden pin of every per-statement-fingerprint report the serving layer
// produces, over one seeded traffic run with a drift phase: the SLO
// text, the service's estimation-quality text and drifted set, and the
// server.slo.*, estimator.quality.* and optimizer.regret.* metric series.
// The run is built so that every column those reports read
// actually moves: stale plans regret, the quality monitor flags drift,
// the drift flag rebuilds the statistics within the wave, and the
// rebuilds reset the quality profiles.
// Regenerate with ROBUSTQO_UPDATE_GOLDENS=1.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/database.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/traffic_harness.h"

namespace robustqo {
namespace {

constexpr uint64_t kBaseRows = 2000;

std::unique_ptr<core::Database> MakeReadingsDatabase() {
  auto db = std::make_unique<core::Database>();
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < kBaseRows; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  RQO_CHECK_MSG(db->catalog()->AddTable(std::move(table)).ok(),
                "table load failed");
  db->UpdateStatistics();
  return db;
}

// Rows matching `r_value < 50`, appended without a statistics rebuild:
// the drifting statement's estimate goes stale underneath its cached plan.
void FloodMatchingRows(core::Database* db, uint64_t rows) {
  storage::Table* readings = db->catalog()->GetMutableTable("readings");
  RQO_CHECK(readings != nullptr);
  Rng rng(77);
  const uint64_t first = readings->num_rows();
  for (uint64_t i = 0; i < rows; ++i) {
    readings->AppendRow(
        {storage::Value::Int64(static_cast<int64_t>(first + i)),
         storage::Value::Int64(static_cast<int64_t>(rng.NextBounded(50)))});
  }
}

// One traffic phase over the two statements: `r_value < 50` drifts under
// the flood, the range statement does not.
workload::TrafficConfig Phase(uint64_t seed, size_t clients,
                              double duration_seconds) {
  workload::TrafficConfig config;
  config.base_seed = seed;
  config.clients = clients;
  config.duration_seconds = duration_seconds;
  config.think_seconds = 2.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  return config;
}

// The series of the three families the reports publish, in export order.
std::string FingerprintSeries(const obs::MetricsRegistry& metrics) {
  std::istringstream lines(obs::ToOpenMetrics(metrics));
  std::string out;
  std::string line;
  for (const char* family :
       {"rqo_server_slo_", "rqo_estimator_quality_", "rqo_optimizer_regret_"}) {
    lines.clear();
    lines.seekg(0);
    while (std::getline(lines, line)) {
      const std::string name =
          line.rfind("# TYPE ", 0) == 0 ? line.substr(7) : line;
      if (name.rfind(family, 0) == 0) out += line + "\n";
    }
  }
  return out;
}

// Every fingerprint report of the service, after one phase.
std::string RenderReports(const std::string& phase,
                          server::QueryService* service) {
  std::string out = "=== " + phase + ": slo text\n";
  out += service->ledger()->SloReportText();
  out += "=== " + phase + ": quality text\n";
  out += service->ledger()->QualityReportText();
  out += "=== " + phase + ": drifted\n";
  for (const obs::FingerprintQuality& q : service->ledger()->Drifted()) {
    out += StrPrintf("0x%016llx baseline=%.9g recent=%.9g ratio=%.9g\n",
                     static_cast<unsigned long long>(q.fingerprint),
                     q.baseline_median_q, q.recent_median_q, q.drift_ratio);
  }
  out += "=== " + phase + ": metrics\n";
  obs::MetricsRegistry metrics;
  service->PublishMetrics(&metrics);
  out += FingerprintSeries(metrics);
  return out;
}

// One gauge or counter of the service's freshly published metrics.
double Gauge(const server::QueryService& service, const char* name) {
  obs::MetricsRegistry metrics;
  service.PublishMetrics(&metrics);
  return metrics.GetGauge(name)->value();
}
uint64_t Count(const server::QueryService& service, const char* name) {
  obs::MetricsRegistry metrics;
  service.PublishMetrics(&metrics);
  return metrics.GetCounter(name)->value();
}

// A healthy phase caches both plans; a flood of matching rows then makes
// the cached plans undersell their cost, so a short drift phase regrets
// and flags `r_value < 50` drifted, which rebuilds the statistics of
// `readings` within the same wave. UPDATE STATISTICS resets the quality
// profiles again, and a long recovery phase runs on fresh statistics.
TEST(FingerprintReportsTest, DriftArcReportsMatchGolden) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  server::ServerConfig config;
  config.admission.max_concurrent = 64;
  config.admission.max_queue_depth = 1024;
  config.quality.baseline_window = 8;
  config.quality.recent_window = 8;
  config.quality.min_observations = 4;
  config.quality.drift_factor = 4.0;
  server::QueryService service(db.get(), config);

  std::string rendered;
  workload::RunTraffic(&service, Phase(11, 16, 6.0));
  rendered += RenderReports("healthy", &service);
  const uint64_t healthy_epoch = db->statistics()->epoch();
  FloodMatchingRows(db.get(), 3000);
  workload::RunTraffic(&service, Phase(12, 8, 3.0));
  rendered += RenderReports("drift", &service);
  // The flood bypassed the DML path, so only the drift flag can have
  // rebuilt the statistics.
  EXPECT_GT(db->statistics()->epoch(), healthy_epoch);
  EXPECT_GT(Count(service, "optimizer.regret.positive"), 0u);
  service.UpdateStatistics();
  // The rebuild reset the quality profiles; SLO scopes survive it.
  EXPECT_EQ(Gauge(service, "estimator.quality.observations"), 0.0);
  EXPECT_GT(Count(service, "server.slo.observed"), 0u);
  workload::RunTraffic(&service, Phase(13, 40, 20.0));
  rendered += RenderReports("recovery", &service);
  EXPECT_GT(Gauge(service, "estimator.quality.observations"), 0.0);

  const std::string path = std::string(ROBUSTQO_SOURCE_DIR) +
                           "/tests/golden/fingerprint_reports.txt";
  if (std::getenv("ROBUSTQO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with ROBUSTQO_UPDATE_GOLDENS=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str()) << "golden mismatch: fingerprint_reports";
}

}  // namespace
}  // namespace robustqo
