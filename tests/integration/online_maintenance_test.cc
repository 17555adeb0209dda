// The full online-maintenance arc, end to end and hands-free: write
// traffic through the query service feeds the per-table modification
// counters; crossing the maintenance threshold (or a drift flag) marks
// the table pending; the end-of-wave background rebuild
// redraws its statistics and bumps the statistics epoch; and the plan
// cache's lazy epoch invalidation drops the stale plan and re-caches a
// fresh one — with no manual UPDATE STATISTICS anywhere.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "server/query_service.h"
#include "statistics/statistics_catalog.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace robustqo {
namespace {

constexpr uint64_t kBaseRows = 1000;

std::unique_ptr<core::Database> MakeDatabase() {
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
  EXPECT_TRUE(db->catalog()->AddTable(std::move(table)).ok());
  db->UpdateStatistics();
  return db;
}

const char kCountSql[] = "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50";

stats::StatisticsCatalog::MaintenanceEntry ReadingsMaintenance(
    core::Database* db) {
  for (const auto& entry : db->statistics()->MaintenanceState()) {
    if (entry.table == "readings") return entry;
  }
  ADD_FAILURE() << "no maintenance state for readings";
  return {};
}

TEST(OnlineMaintenanceTest, WriteFloodTriggersRebuildAndPlanRecache) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  server::QueryService service(db.get());
  const server::SessionId session = service.OpenSession();
  ASSERT_TRUE(service.Prepare(session, "count", kCountSql).ok());

  // Cache the read's plan under the initial statistics epoch.
  const uint64_t epoch0 = db->statistics()->epoch();
  server::QueryResponse cold = service.ExecutePrepared(session, "count");
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(service.ExecutePrepared(session, "count").cache_hit);

  // Flood: INSERT batches through the service until the maintenance
  // policy's 20%-of-table threshold flags the table. Each wave commits,
  // counts its rows, and runs the background rebuild check; the
  // rebuild must fire on its own before the flood ends.
  Rng rng(7);
  uint64_t next_id = 10000;
  for (int wave = 0; wave < 30 && db->statistics()->epoch() == epoch0;
       ++wave) {
    std::string sql = "INSERT INTO readings VALUES ";
    for (int row = 0; row < 10; ++row) {
      if (row > 0) sql += ", ";
      sql += StrPrintf("(%llu, %llu)",
                       static_cast<unsigned long long>(next_id++),
                       static_cast<unsigned long long>(rng.NextBounded(50)));
    }
    server::QueryResponse w = service.ExecuteSql(session, sql);
    ASSERT_TRUE(w.status.ok()) << w.status.ToString();
    ASSERT_TRUE(w.dml.has_value());
  }

  // The background rebuild bumped the statistics epoch — no manual
  // UpdateStatistics anywhere in this test.
  EXPECT_GT(db->statistics()->epoch(), epoch0);
  // The rebuild reset the table's maintenance counters.
  stats::StatisticsCatalog::MaintenanceEntry entry = ReadingsMaintenance(db.get());
  EXPECT_FALSE(entry.pending_rebuild);

  // The cached plan was built under epoch0: the next lookup lazily drops
  // it and the replan re-caches under the fresh epoch.
  const uint64_t invalidated_before =
      service.plan_cache()->stats().invalidated_epoch;
  server::QueryResponse replanned = service.ExecutePrepared(session, "count");
  ASSERT_TRUE(replanned.status.ok());
  EXPECT_FALSE(replanned.cache_hit);
  EXPECT_GT(service.plan_cache()->stats().invalidated_epoch,
            invalidated_before);
  EXPECT_TRUE(service.ExecutePrepared(session, "count").cache_hit);
}

TEST(OnlineMaintenanceTest, ModificationsFollowCommittedWritesOnly) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  server::QueryService service(db.get());
  const server::SessionId session = service.OpenSession();

  const stats::StatisticsCatalog::MaintenanceEntry before =
      ReadingsMaintenance(db.get());

  server::QueryResponse w = service.ExecuteSql(
      session, "INSERT INTO readings VALUES (9001, 1), (9002, 2)");
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();

  const stats::StatisticsCatalog::MaintenanceEntry after =
      ReadingsMaintenance(db.get());
  EXPECT_EQ(after.modifications, before.modifications + 2);

  // A parse-failed statement commits nothing and counts nothing.
  ASSERT_FALSE(
      service.ExecuteSql(session, "INSERT INTO readings VALUES ('x', 1)")
          .status.ok());
  EXPECT_EQ(ReadingsMaintenance(db.get()).modifications,
            after.modifications);
}

}  // namespace
}  // namespace robustqo
