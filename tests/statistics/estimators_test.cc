#include <gtest/gtest.h>

#include <memory>

#include "expr/expression.h"
#include "obs/trace.h"
#include "statistics/histogram_estimator.h"
#include "statistics/magic.h"
#include "statistics/robust_sample_estimator.h"
#include "statistics/statistics_catalog.h"
#include "util/rng.h"

namespace robustqo {
namespace stats {
namespace {

using expr::And;
using expr::Between;
using expr::Col;
using expr::Eq;
using expr::LitInt;
using storage::Catalog;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

// fact(5000 rows) -> dim(100 rows). fact.x and fact.y are perfectly
// correlated (y = x); each is uniform over 0..9. dim_attr uniform 0..4.
class EstimatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dim = std::make_unique<Table>(
        "dim", Schema({{"dim_id", DataType::kInt64},
                       {"dim_attr", DataType::kInt64}}));
    for (int64_t i = 0; i < 100; ++i) {
      dim->AppendRow({Value::Int64(i), Value::Int64(i % 5)});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(dim)).ok());

    auto fact = std::make_unique<Table>(
        "fact", Schema({{"fact_id", DataType::kInt64},
                        {"x", DataType::kInt64},
                        {"y", DataType::kInt64},
                        {"fk", DataType::kInt64}}));
    Rng rng(99);
    for (int64_t i = 0; i < 5000; ++i) {
      const int64_t x = rng.NextInRange(0, 9);
      fact->AppendRow({Value::Int64(i), Value::Int64(x), Value::Int64(x),
                       Value::Int64(rng.NextInRange(0, 99))});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(fact)).ok());
    ASSERT_TRUE(catalog_.SetPrimaryKey("dim", "dim_id").ok());
    ASSERT_TRUE(catalog_.AddForeignKey({"fact", "fk", "dim", "dim_id"}).ok());

    statistics_ = std::make_unique<StatisticsCatalog>(&catalog_);
    statistics_->BuildAllHistograms(250);
    StatisticsConfig config;
    config.sample_size = 500;
    config.seed = 5;
    statistics_->BuildAllSamples(config);
  }

  CardinalityRequest SingleTable(expr::ExprPtr pred) {
    return {{"fact"}, std::move(pred)};
  }

  Catalog catalog_;
  std::unique_ptr<StatisticsCatalog> statistics_;
};

TEST_F(EstimatorsTest, HistogramSinglePredicateAccurate) {
  HistogramEstimator est(statistics_.get());
  // x = 3 has true selectivity ~10%.
  Result<double> rows =
      est.EstimateRows(SingleTable(Eq(Col("x"), LitInt(3))), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_NEAR(rows.value(), 500.0, 75.0);
}

TEST_F(EstimatorsTest, HistogramAviUnderestimatesCorrelation) {
  HistogramEstimator est(statistics_.get());
  // x = 3 AND y = 3: truth ~10% (perfect correlation); AVI says ~1%.
  auto pred = And({Eq(Col("x"), LitInt(3)), Eq(Col("y"), LitInt(3))});
  Result<double> rows = est.EstimateRows(SingleTable(pred), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_LT(rows.value(), 120.0);  // ~50 expected: an order of magnitude low
}

TEST_F(EstimatorsTest, RobustEstimatorSeesThroughCorrelation) {
  RobustSampleEstimator est(statistics_.get(), RobustEstimatorConfig{});
  auto pred = And({Eq(Col("x"), LitInt(3)), Eq(Col("y"), LitInt(3))});
  Result<double> rows = est.EstimateRows(SingleTable(pred), {});
  ASSERT_TRUE(rows.ok());
  // Truth ~500 rows; at T = 80% the estimate must be in the right ballpark,
  // not the AVI ~50.
  EXPECT_GT(rows.value(), 350.0);
  EXPECT_LT(rows.value(), 750.0);
}

TEST_F(EstimatorsTest, RobustEstimateGrowsWithThreshold) {
  double prev = 0.0;
  for (double t : {0.05, 0.5, 0.95}) {
    RobustEstimatorConfig config;
    config.confidence_threshold = t;
    RobustSampleEstimator est(statistics_.get(), config);
    Result<double> rows =
        est.EstimateRows(SingleTable(Eq(Col("x"), LitInt(3))), {});
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows.value(), prev);
    prev = rows.value();
  }
}

TEST_F(EstimatorsTest, NullPredicateReturnsRootRows) {
  HistogramEstimator hist(statistics_.get());
  RobustSampleEstimator robust(statistics_.get(), RobustEstimatorConfig{});
  EXPECT_EQ(hist.EstimateRows(SingleTable(nullptr), {}).value(), 5000.0);
  EXPECT_EQ(robust.EstimateRows(SingleTable(nullptr), {}).value(), 5000.0);
}

TEST_F(EstimatorsTest, JoinRequestUsesRootRowCount) {
  // fact |x| dim with a 20%-selective dim predicate: ~1000 rows.
  CardinalityRequest req{{"fact", "dim"}, Eq(Col("dim_attr"), LitInt(2))};
  HistogramEstimator hist(statistics_.get());
  RobustSampleEstimator robust(statistics_.get(), RobustEstimatorConfig{});
  EXPECT_NEAR(hist.EstimateRows(req, {}).value(), 1000.0, 150.0);
  EXPECT_NEAR(robust.EstimateRows(req, {}).value(), 1000.0, 250.0);
}

TEST_F(EstimatorsTest, ObservationExposesSampleCounts) {
  RobustSampleEstimator est(statistics_.get(), RobustEstimatorConfig{});
  auto obs = est.Observe(SingleTable(Eq(Col("x"), LitInt(3))), {});
  ASSERT_TRUE(obs.ok());
  EXPECT_EQ(obs.value().sample_size, 500u);
  EXPECT_EQ(obs.value().root_rows, 5000u);
  EXPECT_NEAR(static_cast<double>(obs.value().satisfying), 50.0, 25.0);
}

TEST_F(EstimatorsTest, PosteriorMatchesObservation) {
  RobustSampleEstimator est(statistics_.get(), RobustEstimatorConfig{});
  auto req = SingleTable(Eq(Col("x"), LitInt(3)));
  auto obs = est.Observe(req, {});
  auto posterior = est.EstimatePosterior(req, {});
  ASSERT_TRUE(obs.ok());
  ASSERT_TRUE(posterior.ok());
  EXPECT_EQ(posterior.value().k(), obs.value().satisfying);
  EXPECT_EQ(posterior.value().n(), obs.value().sample_size);
}

TEST_F(EstimatorsTest, FallbackToPerTableSamples) {
  // Drop the fact synopsis: the robust estimator should fall back to the
  // per-table sample (which for a single-table request is equivalent data).
  statistics_->DropSynopsis("fact");
  RobustSampleEstimator est(statistics_.get(), RobustEstimatorConfig{});
  EXPECT_FALSE(est.Observe(SingleTable(Eq(Col("x"), LitInt(3))), {}).ok());
  Result<double> rows =
      est.EstimateRows(SingleTable(Eq(Col("x"), LitInt(3))), {});
  ASSERT_TRUE(rows.ok());
  // The per-table sample survives the drop, so the estimate is still a
  // real sample-based cardinality for the ~10% predicate.
  EXPECT_GT(rows.value(), 200.0);
  EXPECT_LT(rows.value(), 1000.0);
}

TEST_F(EstimatorsTest, DefaultWideFallbackRespondsToThreshold) {
  // No samples and no histograms: the estimator bottoms out at the
  // default-wide posterior, whose quantile still responds to T.
  statistics_->ClearSamples();
  statistics_->ClearHistograms();
  RobustEstimatorConfig lo_cfg;
  lo_cfg.confidence_threshold = 0.05;
  RobustEstimatorConfig hi_cfg;
  hi_cfg.confidence_threshold = 0.95;
  RobustSampleEstimator lo(statistics_.get(), lo_cfg);
  RobustSampleEstimator hi(statistics_.get(), hi_cfg);
  auto pred = Eq(Col("x"), LitInt(3));
  EXPECT_LT(lo.EstimateRows(SingleTable(pred), {}).value(),
            hi.EstimateRows(SingleTable(pred), {}).value());
}

TEST_F(EstimatorsTest, SamplingModesAgreeForSmallSamplingFractions) {
  // The Bayesian model assumes with-replacement draws; for samples far
  // smaller than the table the two modes must produce estimates within
  // sampling noise of each other.
  StatisticsConfig with;
  with.sample_size = 400;
  with.sampling_mode = SamplingMode::kWithReplacement;
  with.seed = 21;
  StatisticsConfig without = with;
  without.sampling_mode = SamplingMode::kWithoutReplacement;

  auto pred = Eq(Col("x"), LitInt(3));
  statistics_->BuildAllSamples(with);
  RobustSampleEstimator est_with(statistics_.get(),
                                 RobustEstimatorConfig{});
  const double rows_with =
      est_with.EstimateRows(SingleTable(pred), {}).value();
  statistics_->BuildAllSamples(without);
  RobustSampleEstimator est_without(statistics_.get(),
                                    RobustEstimatorConfig{});
  const double rows_without =
      est_without.EstimateRows(SingleTable(pred), {}).value();
  // Truth ~500; both estimates in the same ballpark (3-sigma of a
  // 400-tuple binomial at p=0.1 is ~±90 rows scaled to 5000).
  EXPECT_NEAR(rows_with, rows_without, 300.0);
}

TEST_F(EstimatorsTest, ContextThresholdMatchesConfiguredEstimator) {
  // A per-call T in the context estimates exactly as an estimator
  // configured at that T, and leaves the shared estimator's own T alone.
  const CardinalityRequest req = SingleTable(Eq(Col("x"), LitInt(3)));
  RobustSampleEstimator est(statistics_.get(), RobustEstimatorConfig{});
  RobustEstimatorConfig config;
  config.confidence_threshold = 0.95;
  RobustSampleEstimator configured(statistics_.get(), config);

  obs::Tracer tracer;
  EstimationContext context;
  context.confidence_threshold = 0.95;
  context.tracer = &tracer;
  const Result<double> hinted = est.EstimateRows(req, context);
  ASSERT_TRUE(hinted.ok());
  EXPECT_EQ(hinted.value(), configured.EstimateRows(req, {}).value());
  EXPECT_NE(hinted.value(), est.EstimateRows(req, {}).value());
  EXPECT_EQ(est.config().confidence_threshold, 0.80);
  EXPECT_EQ(est.name(context), "robust-sample@T=95%");
  EXPECT_EQ(est.name({}), "robust-sample@T=80%");

  // Only the hinted call's events reached the context's tracer.
  ASSERT_EQ(tracer.events().size(), 1u);
  const obs::TraceEvent& event = tracer.events()[0];
  EXPECT_EQ(event.category, "estimator");
  EXPECT_EQ(event.name, "robust");
  bool saw_threshold = false;
  for (const auto& [key, value] : event.attrs) {
    if (key != "threshold") continue;
    saw_threshold = true;
    EXPECT_EQ(value, obs::AttrF(0.95));
  }
  EXPECT_TRUE(saw_threshold);
}

TEST_F(EstimatorsTest, EstimatorNames) {
  HistogramEstimator hist(statistics_.get());
  EXPECT_EQ(hist.name({}), "histogram-avi");
  RobustEstimatorConfig config;
  config.confidence_threshold = 0.8;
  RobustSampleEstimator robust(statistics_.get(), config);
  EXPECT_EQ(robust.name({}), "robust-sample@T=80%");
}

TEST_F(EstimatorsTest, DisconnectedTablesRejected) {
  RobustSampleEstimator est(statistics_.get(), RobustEstimatorConfig{});
  CardinalityRequest req{{"dim"}, nullptr};
  EXPECT_TRUE(est.EstimateRows(req, {}).ok());  // single table fine
  // dim alone is fine; {dim, fact} is fine; an unknown table is not.
  CardinalityRequest bad{{"nope"}, nullptr};
  EXPECT_FALSE(est.EstimateRows(bad, {}).ok());
}

TEST_F(EstimatorsTest, SummaryBytesAccounting) {
  EXPECT_GT(statistics_->ApproximateSummaryBytes(), 0u);
  statistics_->ClearHistograms();
  statistics_->ClearSamples();
  EXPECT_EQ(statistics_->ApproximateSummaryBytes(), 0u);
}

}  // namespace
}  // namespace stats
}  // namespace robustqo
