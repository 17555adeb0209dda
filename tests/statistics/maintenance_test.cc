#include "statistics/maintenance_policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/dml.h"
#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "statistics/statistics_catalog.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace robustqo {
namespace stats {
namespace {

TEST(MaintenancePolicyTest, FreshPolicyWantsBuild) {
  SampleMaintenancePolicy policy;
  EXPECT_TRUE(policy.RebuildDue());
}

TEST(MaintenancePolicyTest, TriggersAtFraction) {
  SampleMaintenancePolicy policy(0.20);
  policy.RecordRebuild(1000);
  EXPECT_FALSE(policy.RebuildDue());
  policy.RecordModifications(150);
  EXPECT_FALSE(policy.RebuildDue());
  policy.RecordModifications(50);  // total 200 = 20% of 1000
  EXPECT_TRUE(policy.RebuildDue());
  EXPECT_EQ(policy.modifications_since_rebuild(), 200u);
}

TEST(MaintenancePolicyTest, RebuildResetsCounter) {
  SampleMaintenancePolicy policy(0.10);
  policy.RecordRebuild(100);
  policy.RecordModifications(10);
  EXPECT_TRUE(policy.RebuildDue());
  policy.RecordRebuild(110);
  EXPECT_FALSE(policy.RebuildDue());
  EXPECT_EQ(policy.modifications_since_rebuild(), 0u);
}

// Catalog-level counting: the DML executor counts exactly the row
// versions a published commit wrote, so a rolled-back write counts
// nothing and an update counts its delete stamp and its new version.
class ModificationCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = std::make_unique<storage::Table>(
        "t", storage::Schema({{"id", storage::DataType::kInt64},
                              {"v", storage::DataType::kInt64}}));
    for (int64_t i = 0; i < 100; ++i) {
      table->AppendRow({storage::Value::Int64(i), storage::Value::Int64(0)});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(table)).ok());
    statistics_ = std::make_unique<StatisticsCatalog>(&catalog_);
    statistics_->BuildAllSamples(StatisticsConfig{});
    executor_ = std::make_unique<exec::DmlExecutor>(&catalog_,
                                                    statistics_.get());
    ASSERT_EQ(Modifications(), 0u);
  }

  uint64_t Modifications() const {
    for (const auto& entry : statistics_->MaintenanceState()) {
      if (entry.table == "t") return entry.modifications;
    }
    ADD_FAILURE() << "no maintenance state for t";
    return 0;
  }

  Result<exec::DmlResult> InsertRows(int64_t first_id, int count) {
    std::vector<std::vector<storage::Value>> rows;
    for (int i = 0; i < count; ++i) {
      rows.push_back({storage::Value::Int64(first_id + i),
                      storage::Value::Int64(0)});
    }
    return executor_->Insert(&ctx_, "t", rows);
  }

  storage::Catalog catalog_;
  std::unique_ptr<StatisticsCatalog> statistics_;
  std::unique_ptr<exec::DmlExecutor> executor_;
  exec::ExecContext ctx_;
};

TEST_F(ModificationCountTest, CommittedInsertCountsItsRows) {
  ASSERT_TRUE(InsertRows(1000, 3).ok());
  EXPECT_EQ(Modifications(), 3u);
  ASSERT_TRUE(InsertRows(2000, 4).ok());
  EXPECT_EQ(Modifications(), 7u);
  EXPECT_FALSE(statistics_->RebuildPending());
}

TEST_F(ModificationCountTest, UpdateCountsTwicePerRow) {
  auto updated = executor_->Update(
      &ctx_, "t", {{"v", expr::LitInt(7)}},
      expr::Lt(expr::Col("id"), expr::LitInt(5)));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value().rows_updated, 5u);
  EXPECT_EQ(Modifications(), 10u);
}

TEST_F(ModificationCountTest, RolledBackWriteCountsNothing) {
  const uint64_t checksum = catalog_.GetTable("t")->VisibleChecksum();
  fault::FaultInjector injector(13);
  injector.Arm(fault::sites::kWriteCommit, fault::FaultSpec::Always());
  ctx_.fault = &injector;

  auto failed = InsertRows(1000, 5);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(catalog_.GetTable("t")->VisibleChecksum(), checksum);
  EXPECT_EQ(Modifications(), 0u) << "rolled-back rows were counted";

  // Once the site is disarmed the same write commits and counts.
  ctx_.fault = nullptr;
  ASSERT_TRUE(InsertRows(1000, 5).ok());
  EXPECT_EQ(Modifications(), 5u);
}

}  // namespace
}  // namespace stats
}  // namespace robustqo
