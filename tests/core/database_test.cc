#include "core/database.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

namespace robustqo {
namespace core {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.005;
    ASSERT_TRUE(tpch::LoadTpch(db_->catalog(), config).ok());
    db_->UpdateStatistics();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* DatabaseTest::db_ = nullptr;

TEST_F(DatabaseTest, EstimatorAccessors) {
  EXPECT_NE(db_->histogram_estimator(), nullptr);
  EXPECT_NE(db_->robust_estimator(), nullptr);
  EXPECT_EQ(db_->estimator(EstimatorKind::kHistogram),
            db_->histogram_estimator());
  EXPECT_EQ(db_->estimator(EstimatorKind::kRobustSample),
            db_->robust_estimator());
}

TEST_F(DatabaseTest, RobustnessLevelsMapToThresholds) {
  // The database is shared by the whole suite: put its threshold back.
  const double saved = db_->confidence_threshold();
  db_->SetRobustnessLevel(stats::RobustnessLevel::kConservative);
  EXPECT_EQ(db_->confidence_threshold(), 0.95);
  db_->SetRobustnessLevel(stats::RobustnessLevel::kModerate);
  EXPECT_EQ(db_->confidence_threshold(), 0.80);
  db_->SetRobustnessLevel(stats::RobustnessLevel::kAggressive);
  EXPECT_EQ(db_->confidence_threshold(), 0.50);
  db_->SetConfidenceThreshold(0.33);
  EXPECT_EQ(db_->confidence_threshold(), 0.33);
  db_->SetConfidenceThreshold(saved);
}

TEST_F(DatabaseTest, PlanAndExecuteAgree) {
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  auto plan = db_->Plan(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(plan.ok());
  auto direct_result = db_->ExecutePlan(plan.value());
  ASSERT_TRUE(direct_result.ok());
  ExecutionResult direct = std::move(direct_result).value();
  auto via_execute = db_->Execute(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(via_execute.ok());
  EXPECT_EQ(direct.plan_label, via_execute.value().plan_label);
  EXPECT_DOUBLE_EQ(direct.simulated_seconds,
                   via_execute.value().simulated_seconds);
}

TEST_F(DatabaseTest, ExecuteReturnsAnswerAndMetrics) {
  workload::SingleTableScenario scenario;
  auto result = db_->Execute(scenario.MakeQuery(70),
                             EstimatorKind::kHistogram);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.num_rows(), 1u);
  EXPECT_GT(result.value().simulated_seconds, 0.0);
  EXPECT_GT(result.value().estimated_cost, 0.0);
  EXPECT_FALSE(result.value().plan_label.empty());
  EXPECT_FALSE(result.value().plan_tree.empty());
  EXPECT_GT(db_->last_optimizer_metrics().estimator_calls, 0u);
}

TEST_F(DatabaseTest, ExecutePropagatesPlanErrors) {
  opt::QuerySpec bad;
  bad.tables.push_back({"missing_table", nullptr});
  EXPECT_FALSE(db_->Execute(bad, EstimatorKind::kHistogram).ok());
}

TEST_F(DatabaseTest, BothEstimatorsComputeSameAnswer) {
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(64);
  auto hist = db_->Execute(query, EstimatorKind::kHistogram);
  auto robust = db_->Execute(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(hist.ok());
  ASSERT_TRUE(robust.ok());
  EXPECT_NEAR(hist.value().rows.ValueAt(0, 0).AsDouble(),
              robust.value().rows.ValueAt(0, 0).AsDouble(), 1e-6);
}

TEST_F(DatabaseTest, StatisticsPersistenceRoundTripThroughFacade) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "rqo_db_persist_test";
  fs::remove_all(dir);
  ASSERT_TRUE(db_->SaveStatisticsTo(dir.string()).ok());

  // A second database over the same data, statistics loaded from disk,
  // must plan identically to the original.
  Database twin;
  tpch::TpchConfig config;
  config.scale_factor = 0.005;
  ASSERT_TRUE(tpch::LoadTpch(twin.catalog(), config).ok());
  ASSERT_TRUE(twin.LoadStatisticsFrom(dir.string()).ok());

  workload::SingleTableScenario scenario;
  for (double offset : {60.0, 75.0, 90.0}) {
    opt::QuerySpec query = scenario.MakeQuery(offset);
    auto original = db_->Plan(query, EstimatorKind::kRobustSample);
    auto restored = twin.Plan(query, EstimatorKind::kRobustSample);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(original.value().label, restored.value().label);
    EXPECT_NEAR(original.value().estimated_cost,
                restored.value().estimated_cost, 1e-9);
  }
  fs::remove_all(dir);
}

TEST_F(DatabaseTest, MemoizationDisabledMatchesPlansButNotWork) {
  workload::ThreeTableJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(12.0);
  auto memo = db_->Plan(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(memo.ok());
  const auto memo_metrics = db_->last_optimizer_metrics();
  opt::OptimizerOptions options;
  options.enable_estimate_memo = false;
  auto no_memo = db_->Plan(query, EstimatorKind::kRobustSample, options);
  ASSERT_TRUE(no_memo.ok());
  const auto raw_metrics = db_->last_optimizer_metrics();
  EXPECT_EQ(memo.value().label, no_memo.value().label);
  EXPECT_NEAR(memo.value().estimated_cost, no_memo.value().estimated_cost,
              1e-9);
  EXPECT_LT(memo_metrics.estimator_misses, raw_metrics.estimator_misses);
  EXPECT_EQ(raw_metrics.estimator_misses, raw_metrics.estimator_calls);
}

TEST_F(DatabaseTest, CostModelSwapAffectsPlanning) {
  // Make random I/O free: the index plan becomes unbeatable at any
  // selectivity estimate.
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(60);
  exec::CostModel cheap_io;
  cheap_io.random_io_cost = 0.0;
  cheap_io.index_seek_cost = 0.0;
  cheap_io.index_entry_cost = 0.0;
  Database db2;
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(db2.catalog(), config).ok());
  db2.UpdateStatistics();
  db2.set_cost_model(cheap_io);
  auto plan = db2.Plan(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().label.find("Ix"), std::string::npos)
      << plan.value().label;
}

}  // namespace
}  // namespace core
}  // namespace robustqo
