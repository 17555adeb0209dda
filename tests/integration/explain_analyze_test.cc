// EXPLAIN ANALYZE end to end: per-operator actuals must agree with an
// independent execution of the same query, the report must carry the
// estimator's per-predicate evidence, and the JSON snapshot must be
// byte-identical across same-seed runs.

#include "core/explain_analyze.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "obs/metrics.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

namespace robustqo {
namespace core {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(db_->catalog(), config).ok());
    stats::StatisticsConfig stats_config;
    stats_config.seed = 7;
    db_->UpdateStatistics(stats_config);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* ExplainAnalyzeTest::db_ = nullptr;

TEST_F(ExplainAnalyzeTest, ThreeTableJoinActualsMatchExecutor) {
  workload::ThreeTableJoinScenario scenario;
  const opt::QuerySpec query = scenario.MakeQuery(0.0);

  auto analyzed = ExplainAnalyze(db_, query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const AnalyzedPlan& plan = analyzed.value();

  // Independent execution of the same query for cross-checking.
  auto executed = db_->Execute(query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(executed.ok());

  EXPECT_EQ(plan.plan_label, executed.value().plan_label);
  EXPECT_EQ(plan.actual_rows, executed.value().rows.num_rows());
  EXPECT_EQ(plan.actual_spj_rows, executed.value().spj_rows);
  EXPECT_DOUBLE_EQ(plan.actual_cost_seconds,
                   executed.value().simulated_seconds);
  EXPECT_GE(plan.spj_q_error, 1.0);

  // Three base tables + at least one join + the aggregate.
  ASSERT_GE(plan.operators.size(), 5u);
  EXPECT_EQ(plan.operators.front().depth, 0);

  EXPECT_TRUE(plan.instrumented);
  for (const OperatorReport& op : plan.operators) {
    EXPECT_TRUE(op.executed) << op.describe;
    EXPECT_GE(op.subtree_cost_seconds, op.self_cost_seconds);
  }
  // The plan root's traced rows are the query's result rows, and the
  // aggregate's input (its child's traced rows) is the SPJ result size the
  // executor reported.
  EXPECT_EQ(plan.operators.front().actual_rows, plan.actual_rows);
  ASSERT_GE(plan.operators.size(), 2u);
  EXPECT_EQ(plan.operators[1].actual_rows, plan.actual_spj_rows);
  // The root subtree's simulated cost is the whole query's cost.
  EXPECT_NEAR(plan.operators.front().subtree_cost_seconds,
              plan.actual_cost_seconds, 1e-9);

  // Per-predicate estimation evidence from the robust estimator: at least
  // one record with a k-of-n sample observation, its Beta posterior, and
  // the confidence threshold it was inverted at.
  ASSERT_FALSE(plan.predicates.empty());
  bool found_sample = false;
  for (const PredicateReport& p : plan.predicates) {
    if (p.has_sample) {
      found_sample = true;
      EXPECT_GT(p.sample_n, 0u);
      EXPECT_LE(p.sample_k, p.sample_n);
      EXPECT_GT(p.posterior_alpha, 0.0);
      EXPECT_GT(p.posterior_beta, 0.0);
      EXPECT_GT(p.confidence_threshold, 0.0);
      EXPECT_GE(p.selectivity, 0.0);
    }
  }
  EXPECT_TRUE(found_sample);

  // The text rendering carries the headline numbers.
  const std::string text = plan.ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("SPJ rows"), std::string::npos);
  EXPECT_NE(text.find(plan.plan_label), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, EstimatedRowsAnnotatedOnEveryPlanOperator) {
  workload::ThreeTableJoinScenario scenario;
  auto analyzed =
      ExplainAnalyze(db_, scenario.MakeQuery(0.0), EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok());
  for (const OperatorReport& op : analyzed.value().operators) {
    EXPECT_GE(op.estimated_rows, 0.0) << op.describe;
  }
}

TEST_F(ExplainAnalyzeTest, JsonSnapshotIsByteIdenticalAcrossRuns) {
  workload::ThreeTableJoinScenario scenario;
  const opt::QuerySpec query = scenario.MakeQuery(2.0);
  auto first = ExplainAnalyze(db_, query, EstimatorKind::kRobustSample);
  auto second = ExplainAnalyze(db_, query, EstimatorKind::kRobustSample);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().ToJson(), second.value().ToJson());
  EXPECT_EQ(first.value().ToText(), second.value().ToText());
  EXPECT_EQ(first.value().ToDot(), second.value().ToDot());
}

TEST_F(ExplainAnalyzeTest, HistogramEstimatorReportsAviEvidence) {
  workload::ThreeTableJoinScenario scenario;
  auto analyzed = ExplainAnalyze(db_, scenario.MakeQuery(0.0),
                                 EstimatorKind::kHistogram);
  ASSERT_TRUE(analyzed.ok());
  bool found_avi = false;
  for (const PredicateReport& p : analyzed.value().predicates) {
    if (p.source == "histogram-avi") found_avi = true;
  }
  EXPECT_TRUE(found_avi);
}

TEST_F(ExplainAnalyzeTest, DotOutputIsAWellFormedDigraph) {
  workload::ThreeTableJoinScenario scenario;
  auto analyzed =
      ExplainAnalyze(db_, scenario.MakeQuery(0.0), EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok());
  const std::string dot = analyzed.value().ToDot();
  EXPECT_NE(dot.find("digraph plan {"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST_F(ExplainAnalyzeTest, DatabaseMetricsSinkCountsQueries) {
  obs::MetricsRegistry registry;
  db_->SetMetrics(&registry);
  workload::SingleTableScenario scenario;
  auto result =
      db_->Execute(scenario.MakeQuery(10), EstimatorKind::kRobustSample);
  db_->SetMetrics(nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(registry.GetCounter("db.queries_planned")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("db.queries_executed")->value(), 1u);
  EXPECT_GT(registry.GetCounter("exec.operators_run")->value(), 0u);
  EXPECT_GT(registry.GetCounter("optimizer.estimate_calls")->value(), 0u);
}

TEST_F(ExplainAnalyzeTest, ErrorsPropagate) {
  opt::QuerySpec bad;
  bad.tables.push_back({"no_such_table", nullptr});
  EXPECT_FALSE(ExplainAnalyze(db_, bad).ok());
}

}  // namespace
}  // namespace core
}  // namespace robustqo
