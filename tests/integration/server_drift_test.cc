// The drift-aware leg of the plan cache, end to end: a prepared statement
// is cached and served hot; its data then shifts underneath the (stale)
// statistics; the service's estimation-quality monitor flags the
// fingerprint and the cache provably evicts the plan and refuses to
// re-cache it until UPDATE STATISTICS runs through the service.

#include <gtest/gtest.h>

#include <memory>

#include "core/database.h"
#include "expr/expression.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"

namespace robustqo {
namespace {

// Drift detection rides on the quality monitor, which the service feeds
// from execution results; the estimated side comes from the cached plan's
// estimated_spj_rows, so this works with observability on or off — but the
// monitor's metrics assertions need obs.

constexpr uint64_t kBaseRows = 2000;

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
  // r_value < 50: ~5% selectivity until the flood below.
  opt::QuerySpec query;
  query.tables.push_back(
      {"readings", expr::Lt(expr::Col("r_value"), expr::LitInt(50))});
  return query;
}

opt::QuerySpec HealthyQuery() {
  opt::QuerySpec query;
  query.tables.push_back(
      {"readings",
       expr::And({expr::Ge(expr::Col("r_value"), expr::LitInt(500)),
                  expr::Lt(expr::Col("r_value"), expr::LitInt(600))})});
  return query;
}

TEST(ServerDriftTest, DriftedFingerprintEvictsItsCachedPlanUntilStatsRebuild) {
  core::Database db;
  LoadReadings(db.catalog());
  db.UpdateStatistics();

  server::ServerConfig config;
  config.quality.baseline_window = 16;
  config.quality.recent_window = 16;
  config.quality.min_observations = 8;
  config.quality.drift_factor = 4.0;
  // This test exercises the *manual* recovery arc: drift must stay
  // blocked until UpdateStatistics. With background rebuild on (the
  // default) the service heals itself at the end of the flagging wave —
  // that automatic arc is covered by online_maintenance_test.cc.
  config.background_rebuild = false;
  server::QueryService service(&db, config);
  const server::SessionId session = service.OpenSession();

  const opt::QuerySpec drifting = DriftingQuery();
  const opt::QuerySpec healthy = HealthyQuery();
  const uint64_t drifting_fp = server::FingerprintQuery(drifting);
  const uint64_t healthy_fp = server::FingerprintQuery(healthy);

  // Baseline: both statements cache after their first execution and the
  // monitor sees estimates tracking actuals.
  for (int round = 0; round < 20; ++round) {
    server::QueryResponse d = service.ExecuteSpec(session, drifting);
    server::QueryResponse h = service.ExecuteSpec(session, healthy);
    ASSERT_TRUE(d.status.ok()) << d.status.ToString();
    ASSERT_TRUE(h.status.ok()) << h.status.ToString();
    if (round > 0) {
      EXPECT_TRUE(d.cache_hit);
      EXPECT_TRUE(h.cache_hit);
    }
  }
  EXPECT_TRUE(service.ledger()->Drifted().empty())
      << service.ledger()->QualityReportText();
  EXPECT_EQ(service.plan_cache()->stats().invalidated_drift, 0u);

  // The data moves underneath the statistics: flood the table with rows
  // matching the drifting predicate, WITHOUT rebuilding statistics. The
  // cached plan keeps estimating ~100 rows while actuals explode past
  // 3000 — exactly the staleness the drift hook exists for.
  storage::Table* readings = db.catalog()->GetMutableTable("readings");
  ASSERT_NE(readings, nullptr);
  Rng rng(77);
  for (uint64_t i = 0; i < 3000; ++i) {
    readings->AppendRow(
        {storage::Value::Int64(static_cast<int64_t>(kBaseRows + i)),
         storage::Value::Int64(static_cast<int64_t>(rng.NextBounded(50)))});
  }

  // Keep serving. The monitor needs recent_window observations of the
  // exploded q-error before it trips; after that the service must evict
  // the cached plan and subsequent executions must NOT be cache hits.
  bool evicted = false;
  for (int round = 0; round < 40 && !evicted; ++round) {
    ASSERT_TRUE(service.ExecuteSpec(session, drifting).status.ok());
    ASSERT_TRUE(service.ExecuteSpec(session, healthy).status.ok());
    evicted = service.plan_cache()->stats().invalidated_drift > 0;
  }
  ASSERT_TRUE(evicted) << "drift never tripped:\n"
                       << service.ledger()->QualityReportText();
  EXPECT_TRUE(service.plan_cache()->IsDriftBlocked(drifting_fp));
  EXPECT_FALSE(service.plan_cache()->IsDriftBlocked(healthy_fp));

  // Drift-blocked: the statement still answers (re-planned every time),
  // but its plan is not re-cached — statistics are known-stale.
  server::QueryResponse blocked = service.ExecuteSpec(session, drifting);
  ASSERT_TRUE(blocked.status.ok());
  EXPECT_FALSE(blocked.cache_hit);
  EXPECT_GT(service.plan_cache()->stats().rejected_drifted, 0u);
  // The healthy statement's entry was untouched.
  EXPECT_TRUE(service.ExecuteSpec(session, healthy).cache_hit);

  // UPDATE STATISTICS through the service: epoch bump + drift blocks
  // lifted + monitor reset. The statement re-caches and serves hot again.
  service.UpdateStatistics();
  EXPECT_FALSE(service.plan_cache()->IsDriftBlocked(drifting_fp));
  server::QueryResponse replanned = service.ExecuteSpec(session, drifting);
  ASSERT_TRUE(replanned.status.ok());
  EXPECT_FALSE(replanned.cache_hit) << "fresh statistics, fresh plan";
  EXPECT_TRUE(service.ExecuteSpec(session, drifting).cache_hit);
  EXPECT_TRUE(service.ledger()->Drifted().empty());
}

}  // namespace
}  // namespace robustqo
