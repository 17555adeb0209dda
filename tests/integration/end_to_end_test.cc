// End-to-end reproduction checks: the qualitative claims of the paper's
// evaluation must hold on the full stack (data generator -> statistics ->
// optimizer -> executor) at test scale.

#include <gtest/gtest.h>

#include "core/database.h"
#include "tpch/tpch_gen.h"
#include "workload/experiment_harness.h"
#include "workload/scenarios.h"
#include "workload/star_schema.h"

namespace robustqo {
namespace {

using core::Database;
using core::EstimatorKind;
using workload::SingleTableScenario;
using workload::StarJoinScenario;

class EndToEndTpch : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(db_->catalog(), config).ok());
    stats::StatisticsConfig stats_config;
    stats_config.sample_size = 500;
    stats_config.seed = 424242;
    db_->UpdateStatistics(stats_config);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* EndToEndTpch::db_ = nullptr;

TEST_F(EndToEndTpch, HistogramsAlwaysPickIndexIntersection) {
  // Paper Section 6.2.1: "The standard estimation module always selected
  // the index intersection plan". AVI underestimates the correlated joint
  // selectivity regardless of the offset parameter.
  SingleTableScenario scenario;
  for (double offset : SingleTableScenario::DefaultParams()) {
    auto plan = db_->Plan(scenario.MakeQuery(offset),
                          EstimatorKind::kHistogram);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan.value().label.find("IxSect"), std::string::npos)
        << "offset " << offset << " chose " << plan.value().label;
  }
}

TEST_F(EndToEndTpch, ConservativeThresholdSticksToSeqScan) {
  // At T = 95% with 500-tuple samples, the optimizer can never be 95%
  // confident the risky plan is safe for this crossover (~0.15%).
  SingleTableScenario scenario;
  for (double offset : SingleTableScenario::DefaultParams()) {
    opt::OptimizerOptions options;
    options.confidence_threshold_hint = 0.95;
    auto plan = db_->Plan(scenario.MakeQuery(offset),
                          EstimatorKind::kRobustSample, options);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan.value().label.find("Seq("), std::string::npos)
        << "offset " << offset << " chose " << plan.value().label;
  }
}

TEST_F(EndToEndTpch, AggressiveThresholdTakesTheRiskAtZeroSelectivity) {
  SingleTableScenario scenario;
  opt::OptimizerOptions options;
  options.confidence_threshold_hint = 0.05;
  auto plan = db_->Plan(scenario.MakeQuery(95),  // true selectivity 0
                        EstimatorKind::kRobustSample, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().label.find("IxSect"), std::string::npos)
      << plan.value().label;
}

TEST_F(EndToEndTpch, RobustBeatsHistogramsOnCorrelatedWorkload) {
  // Figure 9(b)'s headline: on the correlated scenario, the robust
  // estimator at T = 80% dominates the histogram baseline in average time.
  SingleTableScenario scenario;
  workload::QuerySweepExperiment experiment(
      db_, [&](double p) { return scenario.MakeQuery(p); },
      [&](double p) { return scenario.TrueSelectivity(*db_->catalog(), p); });
  workload::SweepConfig config;
  config.params = SingleTableScenario::DefaultParams();
  config.repetitions = 4;
  config.statistics.seed = 7;
  config.settings = {
      {"T=80%", EstimatorKind::kRobustSample, 0.80},
      {"T=95%", EstimatorKind::kRobustSample, 0.95},
      {"Histograms", EstimatorKind::kHistogram, 0.0},
  };
  workload::SweepResult result = experiment.Run(config);
  const auto& robust80 = result.overall.at("T=80%");
  const auto& robust95 = result.overall.at("T=95%");
  const auto& hist = result.overall.at("Histograms");
  EXPECT_LT(robust80.mean_seconds, hist.mean_seconds);
  EXPECT_LT(robust80.std_dev_seconds, hist.std_dev_seconds);
  // Higher threshold, lower variance (Figure 9(b) vertical ordering).
  EXPECT_LE(robust95.std_dev_seconds, robust80.std_dev_seconds + 1e-9);
}

TEST_F(EndToEndTpch, ExecutedCostsTrackPlanShape) {
  // The risky plan's execution cost grows with selectivity; the stable
  // plan's stays flat — the Figure 1 premise measured on the real engine.
  SingleTableScenario scenario;
  auto time_with = [&](const std::string& want, double offset, double hint) {
    opt::OptimizerOptions options;
    options.confidence_threshold_hint = hint;
    auto result = db_->Execute(scenario.MakeQuery(offset),
                               EstimatorKind::kRobustSample, options);
    EXPECT_NE(result.value().plan_label.find(want), std::string::npos)
        << result.value().plan_label;
    return result.value().simulated_seconds;
  };
  // Seq scan: flat across selectivities (conservative threshold).
  const double seq_low = time_with("Seq(", 88, 0.95);
  const double seq_high = time_with("Seq(", 58, 0.95);
  EXPECT_NEAR(seq_low, seq_high, 0.05 * seq_high);
  // Index intersection via histograms: cost rises with selectivity.
  auto hist_run = [&](double offset) {
    auto r = db_->Execute(scenario.MakeQuery(offset),
                          EstimatorKind::kHistogram);
    return r.value().simulated_seconds;
  };
  EXPECT_GT(hist_run(58), 2.0 * hist_run(90));
}

class EndToEndStar : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::StarSchemaConfig config;
    config.fact_rows = 50000;
    config.dim_rows = 1000;
    ASSERT_TRUE(workload::LoadStarSchema(db_->catalog(), config).ok());
    stats::StatisticsConfig stats_config;
    stats_config.sample_size = 500;
    db_->UpdateStatistics(stats_config);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* EndToEndStar::db_ = nullptr;

TEST_F(EndToEndStar, HistogramEstimateIsOffsetBlind) {
  // Paper Section 6.2.3: "The standard histogram-based optimizer always
  // estimated that 0.1% of the rows joined successfully."
  StarJoinScenario scenario;
  stats::HistogramEstimator* est = db_->histogram_estimator();
  double first = -1.0;
  for (double offset : {0.0, 4.0, 9.0}) {
    opt::QuerySpec query = scenario.MakeQuery(offset);
    stats::CardinalityRequest request;
    request.tables = query.TableNames();
    std::vector<expr::ExprPtr> preds;
    for (const auto& t : query.tables) {
      if (t.predicate) preds.push_back(t.predicate);
    }
    request.predicate = expr::And(preds);
    auto rows = est->EstimateRows(request, {});
    ASSERT_TRUE(rows.ok());
    if (first < 0) {
      first = rows.value();
    } else {
      EXPECT_NEAR(rows.value(), first, 1e-6);
    }
  }
  // ~0.1% of 50000 = 50.
  EXPECT_NEAR(first, 50.0, 10.0);
}

TEST_F(EndToEndStar, RobustEstimateTracksTrueJoinFraction) {
  StarJoinScenario scenario;
  double prev = 1e18;
  for (double offset : {0.0, 2.0, 5.0}) {
    opt::QuerySpec query = scenario.MakeQuery(offset);
    stats::CardinalityRequest request;
    request.tables = query.TableNames();
    std::vector<expr::ExprPtr> preds;
    for (const auto& t : query.tables) {
      if (t.predicate) preds.push_back(t.predicate);
    }
    request.predicate = expr::And(preds);
    auto rows = db_->robust_estimator()->EstimateRows(request, {});
    ASSERT_TRUE(rows.ok());
    EXPECT_LT(rows.value(), prev);
    prev = rows.value();
  }
}

TEST_F(EndToEndStar, PlansAdaptToAlignment) {
  // Aligned filters (many joining fact rows): hash cascade. Misaligned
  // (few rows): the semijoin-style star plan, at a moderate threshold.
  StarJoinScenario scenario;
  opt::OptimizerOptions options;
  options.confidence_threshold_hint = 0.5;
  auto aligned = db_->Plan(scenario.MakeQuery(0),
                           EstimatorKind::kRobustSample, options);
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned.value().label.find("Star("), std::string::npos)
      << aligned.value().label;
  auto misaligned = db_->Plan(scenario.MakeQuery(8),
                              EstimatorKind::kRobustSample, options);
  ASSERT_TRUE(misaligned.ok());
  EXPECT_NE(misaligned.value().label.find("Star("), std::string::npos)
      << misaligned.value().label;
}

TEST_F(EndToEndStar, AllPlansComputeIdenticalAggregates) {
  StarJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(1);
  double reference = 0.0;
  bool first = true;
  for (double hint : {0.05, 0.5, 0.95}) {
    opt::OptimizerOptions options;
    options.confidence_threshold_hint = hint;
    auto result =
        db_->Execute(query, EstimatorKind::kRobustSample, options);
    ASSERT_TRUE(result.ok());
    const double sum = result.value().rows.ValueAt(0, 0).AsDouble();
    if (first) {
      reference = sum;
      first = false;
    } else {
      EXPECT_NEAR(sum, reference, 1e-6 * std::max(1.0, reference));
    }
  }
  auto hist = db_->Execute(query, EstimatorKind::kHistogram);
  ASSERT_TRUE(hist.ok());
  EXPECT_NEAR(hist.value().rows.ValueAt(0, 0).AsDouble(), reference,
              1e-6 * std::max(1.0, reference));
}

}  // namespace
}  // namespace robustqo
