#include "core/database.h"

#include <gtest/gtest.h>

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

// nation has 25 rows, fewer than the 500-row with-replacement sample the
// distinct-value estimate for its group-by profiles: the estimate must
// accept a sample larger than its population.
TEST_F(DatabaseTest, GroupByOverTableSmallerThanItsSample) {
  auto result = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM nation GROUP BY n_regionkey",
      EstimatorKind::kRobustSample);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const storage::Table& rows = result.value().rows;
  ASSERT_EQ(rows.num_rows(), 5u);
  int64_t total = 0;
  for (storage::Rid r = 0; r < rows.num_rows(); ++r) {
    EXPECT_EQ(rows.ValueAt(r, 0).AsInt64(), static_cast<int64_t>(r));
    total += rows.ValueAt(r, 1).AsInt64();
  }
  EXPECT_EQ(total, 25);
}

// Aggregates other than COUNT over a string column fail with a typed
// status instead of aborting in the accumulate loop.
TEST_F(DatabaseTest, NumericAggregateOverStringColumnFailsCleanly) {
  for (const char* sql : {"SELECT SUM(c_name) AS s FROM customer",
                          "SELECT MIN(c_name) AS s FROM customer"}) {
    auto result = db_->ExecuteSql(sql, EstimatorKind::kRobustSample);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(result.status().message().find("c_name"), std::string::npos);
  }
}

// spj_rows counts the rows entering the final aggregation: the query's
// true selectivity times the root table's size.
TEST_F(DatabaseTest, SpjRowsCountAggregateInput) {
  workload::SingleTableScenario scenario;
  const double offset = 64;
  auto result =
      db_->Execute(scenario.MakeQuery(offset), EstimatorKind::kRobustSample);
  ASSERT_TRUE(result.ok());
  const double truth = scenario.TrueSelectivity(*db_->catalog(), offset);
  EXPECT_EQ(result.value().spj_rows,
            static_cast<uint64_t>(
                truth *
                static_cast<double>(
                    db_->catalog()->GetTable("lineitem")->num_rows()) +
                0.5));
}

// Without an aggregation, spj_rows is the result's own row count.
TEST_F(DatabaseTest, SpjRowsForAggregateFreeQuery) {
  opt::QuerySpec query;
  query.tables.push_back({"part", nullptr});
  query.select_columns = {"p_partkey"};
  auto result = db_->Execute(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().spj_rows,
            db_->catalog()->GetTable("part")->num_rows());
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

}  // namespace
}  // namespace core
}  // namespace robustqo
