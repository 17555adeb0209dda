// Failure injection: the optimizer must keep producing correct, executable
// plans when its statistics inputs degrade or its estimator fails outright
// (paper Section 3.5: estimation falls back; errors stay confined).

#include <gtest/gtest.h>

#include "core/database.h"
#include "statistics/cardinality_estimator.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

namespace robustqo {
namespace {

// An estimator that always fails — models a broken/absent statistics
// subsystem.
class AlwaysFailingEstimator : public stats::CardinalityEstimator {
 public:
  Result<double> EstimateRows(
      const stats::CardinalityRequest& /*request*/,
      const stats::EstimationContext& /*context*/) override {
    return Status::Internal("statistics subsystem unavailable");
  }
  std::string name(const stats::EstimationContext& /*context*/) const override {
    return "always-failing";
  }
};

// An estimator that answers garbage (negative / NaN-free but absurd).
class AdversarialEstimator : public stats::CardinalityEstimator {
 public:
  explicit AdversarialEstimator(double answer) : answer_(answer) {}
  Result<double> EstimateRows(
      const stats::CardinalityRequest& /*request*/,
      const stats::EstimationContext& /*context*/) override {
    return answer_;
  }
  std::string name(const stats::EstimationContext& /*context*/) const override {
    return "adversarial";
  }

 private:
  double answer_;
};

class FailureInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new core::Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.005;
    ASSERT_TRUE(tpch::LoadTpch(db_->catalog(), config).ok());
    db_->UpdateStatistics();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  double ReferenceAnswer(const opt::QuerySpec& query) {
    auto result = db_->Execute(query, core::EstimatorKind::kRobustSample);
    EXPECT_TRUE(result.ok());
    return result.value().rows.ValueAt(0, 0).AsDouble();
  }

  static core::Database* db_;
};

core::Database* FailureInjectionTest::db_ = nullptr;

TEST_F(FailureInjectionTest, FailingEstimatorStillYieldsCorrectPlan) {
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  const double expected = ReferenceAnswer(query);

  AlwaysFailingEstimator broken;
  opt::Optimizer optimizer(db_->catalog(), &broken);
  auto plan = optimizer.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  exec::ExecContext ctx;
  ctx.catalog = db_->catalog();
  storage::Table out = plan.value().root->Run(&ctx).value();
  EXPECT_NEAR(out.ValueAt(0, 0).AsDouble(), expected,
              1e-6 * std::max(1.0, expected));
}

TEST_F(FailureInjectionTest, FailingEstimatorOnJoins) {
  workload::ThreeTableJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(12.0);
  const double expected = ReferenceAnswer(query);
  AlwaysFailingEstimator broken;
  opt::Optimizer optimizer(db_->catalog(), &broken);
  auto plan = optimizer.Optimize(query);
  ASSERT_TRUE(plan.ok());
  exec::ExecContext ctx;
  ctx.catalog = db_->catalog();
  storage::Table out = plan.value().root->Run(&ctx).value();
  EXPECT_NEAR(out.ValueAt(0, 0).AsDouble(), expected,
              1e-6 * std::max(1.0, expected));
}

TEST_F(FailureInjectionTest, AdversarialEstimatesNeverBreakCorrectness) {
  // Plans may be terrible, but answers must stay right.
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(64);
  const double expected = ReferenceAnswer(query);
  for (double answer : {0.0, 1.0, 1e12}) {
    AdversarialEstimator adversary(answer);
    opt::Optimizer optimizer(db_->catalog(), &adversary);
    auto plan = optimizer.Optimize(query);
    ASSERT_TRUE(plan.ok()) << "answer=" << answer;
    exec::ExecContext ctx;
    ctx.catalog = db_->catalog();
    storage::Table out = plan.value().root->Run(&ctx).value();
    EXPECT_NEAR(out.ValueAt(0, 0).AsDouble(), expected,
                1e-6 * std::max(1.0, expected))
        << "answer=" << answer;
  }
}

TEST_F(FailureInjectionTest, NoStatisticsAtAllStillWorks) {
  // Fresh database, data loaded, UPDATE STATISTICS never ran: every
  // estimate must fall through to the magic numbers/distribution and the
  // query must still execute correctly.
  core::Database fresh;
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(fresh.catalog(), config).ok());
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(70);
  for (auto kind : {core::EstimatorKind::kHistogram,
                    core::EstimatorKind::kRobustSample}) {
    auto result = fresh.Execute(query, kind);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().rows.num_rows(), 1u);
  }
}

TEST_F(FailureInjectionTest, StatisticsOnStaleDataStillCorrect) {
  // Statistics built before additional inserts: estimates are stale but
  // execution runs against current data and must reflect it.
  core::Database fresh;
  tpch::TpchConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(fresh.catalog(), config).ok());
  fresh.UpdateStatistics();
  // "Insert" new rows by appending to lineitem (copies of row 0 with a
  // ship date far outside every window).
  storage::Table* lineitem = fresh.catalog()->GetMutableTable("lineitem");
  const uint64_t before = lineitem->num_rows();
  std::vector<storage::Value> row = lineitem->RowAt(0);
  for (int i = 0; i < 100; ++i) lineitem->AppendRow(row);
  // Indexes are stale too — rebuild them (the catalog's responsibility).
  ASSERT_TRUE(fresh.catalog()->BuildIndex("lineitem", "l_shipdate").ok());
  ASSERT_TRUE(fresh.catalog()->BuildIndex("lineitem", "l_receiptdate").ok());

  opt::QuerySpec count_all;
  count_all.tables.push_back({"lineitem", nullptr});
  count_all.aggregates.push_back({exec::AggKind::kCount, "", "n"});
  auto result = fresh.Execute(count_all, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.ValueAt(0, 0).AsInt64(),
            static_cast<int64_t>(before + 100));
}

}  // namespace
}  // namespace robustqo
