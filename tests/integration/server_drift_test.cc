// The drift leg of online statistics maintenance, end to end: a statement
// is cached and served hot; its data then shifts underneath the (stale)
// statistics; the service's estimation-quality monitor flags the
// fingerprint, the same wave rebuilds the tables it reads, and the epoch
// bump makes the next lookup drop the stale plan and re-plan — with no
// UPDATE STATISTICS anywhere.

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

TEST(ServerDriftTest, DriftRebuildsStatisticsAndReplansAtTheNewEpoch) {
  core::Database db;
  LoadReadings(db.catalog());
  db.UpdateStatistics();

  server::ServerConfig config;
  config.quality.baseline_window = 16;
  config.quality.recent_window = 16;
  config.quality.min_observations = 8;
  config.quality.drift_factor = 4.0;
  server::QueryService service(&db, config);
  const server::SessionId session = service.OpenSession();

  const opt::QuerySpec drifting = DriftingQuery();
  const opt::QuerySpec healthy = HealthyQuery();
  const uint64_t drifting_fp = server::FingerprintQuery(drifting);

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
  const uint64_t epoch0 = db.statistics()->epoch();

  // The data moves underneath the statistics: flood the table with rows
  // matching the drifting predicate directly, bypassing the DML path, so
  // no modification count marks the table. The cached plan keeps
  // estimating ~100 rows while actuals explode past 3000 — only the drift
  // hook can notice.
  storage::Table* readings = db.catalog()->GetMutableTable("readings");
  ASSERT_NE(readings, nullptr);
  Rng rng(77);
  for (uint64_t i = 0; i < 3000; ++i) {
    readings->AppendRow(
        {storage::Value::Int64(static_cast<int64_t>(kBaseRows + i)),
         storage::Value::Int64(static_cast<int64_t>(rng.NextBounded(50)))});
  }
  ASSERT_FALSE(db.statistics()->RebuildPending());

  // Keep serving. The stale plan serves from the cache until the monitor
  // has recent_window observations of the exploded q-error; the wave that
  // flags the drift rebuilds `readings` before the next wave plans.
  for (int round = 0; round < 40 && db.statistics()->epoch() == epoch0;
       ++round) {
    server::QueryResponse d = service.ExecuteSpec(session, drifting);
    ASSERT_TRUE(d.status.ok()) << d.status.ToString();
    EXPECT_TRUE(d.cache_hit) << "served before any rebuild";
    ASSERT_TRUE(service.ExecuteSpec(session, healthy).status.ok());
  }
  ASSERT_GT(db.statistics()->epoch(), epoch0)
      << "drift never tripped:\n"
      << service.ledger()->QualityReportText();
  EXPECT_FALSE(db.statistics()->RebuildPending());
  // The rebuild reset the quality profiles: the old baseline described
  // statistics that no longer exist.
  EXPECT_TRUE(service.ledger()->Drifted().empty());

  // The cached plan predates the new epoch: the next lookup drops it and
  // the statement re-plans, filing trigger stale_epoch.
  const uint64_t invalidated_before =
      service.plan_cache()->stats().invalidated_epoch;
  server::QueryResponse replanned = service.ExecuteSpec(session, drifting);
  ASSERT_TRUE(replanned.status.ok());
  EXPECT_FALSE(replanned.cache_hit) << "fresh statistics, fresh plan";
  EXPECT_EQ(service.plan_cache()->stats().invalidated_epoch,
            invalidated_before + 1);
  ASSERT_FALSE(service.ledger()->plan_diffs().empty());
  EXPECT_EQ(service.ledger()->plan_diffs().back().fingerprint, drifting_fp);
  EXPECT_EQ(service.ledger()->plan_diffs().back().trigger, "stale_epoch");

  // Re-cached under the new epoch, it serves hot again.
  EXPECT_TRUE(service.ExecuteSpec(session, drifting).cache_hit);
}

}  // namespace
}  // namespace robustqo
