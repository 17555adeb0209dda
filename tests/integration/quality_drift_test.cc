// Estimation-quality monitoring end to end: a >= 100-query workload whose
// EXPLAIN ANALYZE feedback flows through workload::RecordAnalyzedPlan into
// the quality columns of an obs::FingerprintLedger. One query shape keeps
// estimating well; a second has its data mutated underneath the (now
// stale) statistics, and the ledger must flag exactly that fingerprint as
// drifted while reporting per-fingerprint q-error quantiles and the
// T%-bound hit-rate.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/explain_analyze.h"
#include "expr/expression.h"
#include "obs/fingerprint_ledger.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"
#include "workload/quality_report.h"

namespace robustqo {
namespace {

// The estimate/actual join rides on estimator trace events (that is where
// the fingerprints come from).

using core::Database;
using core::EstimatorKind;

constexpr uint64_t kBaseRows = 2000;

// A statistics-only table (no indexes), so mutating rows after statistics
// are built changes plans' actuals but never their correctness: every plan
// is a sequential scan over live data.
void LoadReadings(storage::Catalog* catalog) {
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < kBaseRows; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  ASSERT_TRUE(catalog->AddTable(std::move(table)).ok());
}

opt::QuerySpec DriftingQuery() {
  // r_value < 50: ~5% selectivity until the drift phase floods the table
  // with qualifying rows.
  opt::QuerySpec query;
  query.tables.push_back(
      {"readings", expr::Lt(expr::Col("r_value"), expr::LitInt(50))});
  return query;
}

opt::QuerySpec HealthyQuery() {
  // 500 <= r_value < 600: ~10% selectivity, unaffected by the mutation.
  opt::QuerySpec query;
  query.tables.push_back(
      {"readings",
       expr::And({expr::Ge(expr::Col("r_value"), expr::LitInt(500)),
                  expr::Lt(expr::Col("r_value"), expr::LitInt(600))})});
  return query;
}

TEST(QualityDriftTest, MonitorFlagsTheDriftedFingerprintOver100Queries) {
  Database db;
  LoadReadings(db.catalog());
  db.UpdateStatistics();

  obs::QualityConfig config;
  config.baseline_window = 16;
  config.recent_window = 16;
  config.min_observations = 8;
  config.drift_factor = 4.0;
  obs::FingerprintLedger monitor(config);

  const std::vector<opt::QuerySpec> queries = {DriftingQuery(),
                                               HealthyQuery()};
  size_t executed = 0;
  auto run_round = [&](size_t rounds) {
    for (size_t r = 0; r < rounds; ++r) {
      for (const opt::QuerySpec& query : queries) {
        auto analyzed =
            core::ExplainAnalyze(&db, query, EstimatorKind::kRobustSample);
        ASSERT_TRUE(analyzed.ok());
        ASSERT_TRUE(analyzed.value().execution_error.empty());
        ASSERT_EQ(workload::RecordAnalyzedPlan(analyzed.value(), &monitor),
                  1u);
        ++executed;
      }
    }
  };

  // Baseline phase: statistics are fresh, estimates track actuals.
  run_round(20);
  EXPECT_TRUE(monitor.Drifted().empty())
      << "nothing should drift while statistics are fresh:\n"
      << monitor.QualityReportText();

  // Data moves underneath the statistics: flood the table with rows
  // matching the drifting predicate, WITHOUT rebuilding statistics. The
  // stale sample keeps estimating ~5% for r_value < 50 while the actual
  // count explodes.
  storage::Table* readings = db.catalog()->GetMutableTable("readings");
  ASSERT_NE(readings, nullptr);
  Rng rng(77);
  for (uint64_t i = 0; i < 3000; ++i) {
    readings->AppendRow(
        {storage::Value::Int64(static_cast<int64_t>(kBaseRows + i)),
         storage::Value::Int64(static_cast<int64_t>(rng.NextBounded(50)))});
  }

  run_round(40);
  ASSERT_GE(executed, 100u);
  EXPECT_EQ(monitor.observation_count(), executed);
  EXPECT_EQ(monitor.quality_fingerprints(), 2u);

  // Exactly the mutated fingerprint is flagged.
  const std::vector<obs::FingerprintQuality> drifted = monitor.Drifted();
  ASSERT_EQ(drifted.size(), 1u) << monitor.QualityReportText();
  const uint64_t drifting_fp = drifted[0].fingerprint;
  EXPECT_GE(drifted[0].drift_ratio, 4.0);
  EXPECT_GT(drifted[0].q_p99, drifted[0].baseline_median_q);

  // Per-fingerprint profiles carry q-error quantiles and calibration
  // tallies over the whole run.
  for (const obs::FingerprintQuality& q : monitor.Snapshot()) {
    EXPECT_EQ(q.observations, 60u);
    EXPECT_GT(q.q_p50, 0.9);  // q-error >= 1 up to sketch accuracy
    EXPECT_GE(q.q_p99, q.q_p50);
    EXPECT_EQ(q.bound_checks, 60u) << "every robust estimate carries T";
    EXPECT_GT(q.mean_threshold, 0.0);
    if (q.fingerprint == drifting_fp) {
      // The posterior upper bound cannot survive a 10x actuals explosion.
      EXPECT_LT(q.bound_hit_rate, 0.9);
    } else {
      // The healthy shape's T%-bound keeps holding.
      EXPECT_GT(q.bound_hit_rate, 0.9);
    }
  }

  // The drift report renders both fingerprints and marks the drifted one.
  const std::string report = monitor.QualityReportText();
  EXPECT_NE(report.find("DRIFTED"), std::string::npos);
  EXPECT_NE(report.find("ok"), std::string::npos);

  // estimator.quality.* metrics publish the same picture.
  obs::MetricsRegistry metrics;
  monitor.PublishMetrics(&metrics);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("estimator.quality.fingerprints")->value(),
                   2.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("estimator.quality.drifted_fingerprints")->value(),
      1.0);
  EXPECT_EQ(metrics.GetSketch("estimator.quality.q_error")->count(), executed);
}

}  // namespace
}  // namespace robustqo
