// The robust estimator's graceful degradation cascade: join synopsis ->
// per-table sample -> histogram/AVI -> default-wide posterior. Each tier
// loss is exercised both by *removing* the statistic and by *injecting* a
// read fault, and every fallback must be observable through the
// estimator.degraded.* counters and "degraded" trace events.

#include <gtest/gtest.h>

#include <memory>

#include "core/database.h"
#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "statistics/histogram_estimator.h"
#include "statistics/robust_sample_estimator.h"
#include "statistics/statistics_catalog.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

namespace robustqo {
namespace stats {
namespace {

using expr::And;
using expr::Col;
using expr::Eq;
using expr::LitInt;
using storage::Catalog;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

// fact(4000 rows) -> dim(50 rows); fact.x uniform 0..9.
class DegradationCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dim = std::make_unique<Table>(
        "dim", Schema({{"dim_id", DataType::kInt64},
                       {"dim_attr", DataType::kInt64}}));
    for (int64_t i = 0; i < 50; ++i) {
      dim->AppendRow({Value::Int64(i), Value::Int64(i % 5)});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(dim)).ok());
    auto fact = std::make_unique<Table>(
        "fact", Schema({{"fact_id", DataType::kInt64},
                        {"x", DataType::kInt64},
                        {"fk", DataType::kInt64}}));
    Rng rng(17);
    for (int64_t i = 0; i < 4000; ++i) {
      fact->AppendRow({Value::Int64(i), Value::Int64(rng.NextInRange(0, 9)),
                       Value::Int64(rng.NextInRange(0, 49))});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(fact)).ok());
    ASSERT_TRUE(catalog_.SetPrimaryKey("dim", "dim_id").ok());
    ASSERT_TRUE(catalog_.AddForeignKey({"fact", "fk", "dim", "dim_id"}).ok());

    statistics_ = std::make_unique<StatisticsCatalog>(&catalog_);
    statistics_->BuildAllHistograms(100);
    StatisticsConfig config;
    config.sample_size = 400;
    config.seed = 3;
    statistics_->BuildAllSamples(config);
    statistics_->SetFaultInjector(&injector_);
  }

  CardinalityRequest Request() { return {{"fact"}, Eq(Col("x"), LitInt(3))}; }

  uint64_t Counter(const char* name) {
    return metrics_.GetCounter(name)->value();
  }

  RobustSampleEstimator MakeEstimator() {
    return RobustSampleEstimator(statistics_.get(), RobustEstimatorConfig{});
  }

  // Every estimate reports into the fixture's sinks.
  EstimationContext Context() {
    EstimationContext context;
    context.tracer = &tracer_;
    context.metrics = &metrics_;
    return context;
  }

  Catalog catalog_;
  std::unique_ptr<StatisticsCatalog> statistics_;
  fault::FaultInjector injector_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
};

TEST_F(DegradationCascadeTest, FullStatisticsStayOnTierOne) {
  RobustSampleEstimator est = MakeEstimator();
  ASSERT_TRUE(est.EstimateRows(Request(), Context()).ok());
  EXPECT_EQ(Counter("estimator.degraded.synopsis_miss"), 0u);
  EXPECT_EQ(Counter("estimator.degraded.sample_miss"), 0u);
  EXPECT_EQ(Counter("estimator.degraded.to_histogram"), 0u);
  EXPECT_EQ(Counter("estimator.degraded.to_default"), 0u);
}

TEST_F(DegradationCascadeTest, MissingSynopsisFallsToSample) {
  statistics_->DropSynopsis("fact");
  RobustSampleEstimator est = MakeEstimator();
  Result<double> rows = est.EstimateRows(Request(), Context());
  ASSERT_TRUE(rows.ok());
  // Sample-based estimate of a ~10% predicate stays in the ballpark.
  EXPECT_GT(rows.value(), 200.0);
  EXPECT_LT(rows.value(), 800.0);
  EXPECT_EQ(Counter("estimator.degraded.synopsis_miss"), 1u);
  EXPECT_EQ(Counter("estimator.degraded.to_histogram"), 0u);
  bool saw_event = false;
  for (const auto& e : tracer_.events()) {
    if (e.category != "estimator" || e.name != "degraded") continue;
    saw_event = true;
    for (const auto& [k, v] : e.attrs) {
      if (k == "tier_to") EXPECT_EQ(v, "table-sample");
      if (k == "reason") EXPECT_EQ(v, "missing");
    }
  }
  EXPECT_TRUE(saw_event);
}

TEST_F(DegradationCascadeTest, InjectedSynopsisFaultFallsToSample) {
  // The synopsis exists but its storage is down hard: after the retry
  // budget is exhausted the estimator degrades with reason "unavailable"
  // and the estimate matches the dropped-synopsis baseline exactly.
  injector_.Arm(fault::sites::kSynopsisRead, fault::FaultSpec::Always());
  RobustSampleEstimator est = MakeEstimator();
  Result<double> rows = est.EstimateRows(Request(), Context());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Counter("estimator.degraded.synopsis_unavailable"), 1u);

  injector_.DisarmAll();
  statistics_->DropSynopsis("fact");
  RobustSampleEstimator baseline = MakeEstimator();
  EXPECT_DOUBLE_EQ(rows.value(),
                   baseline.EstimateRows(Request(), Context()).value());
}

TEST_F(DegradationCascadeTest, TransientSynopsisFaultHealsViaRetry) {
  // Two failures then recovery: the default 3-attempt retry rides it out
  // and the estimator never degrades.
  injector_.Arm(fault::sites::kSynopsisRead, fault::FaultSpec::FirstN(2));
  RobustSampleEstimator est = MakeEstimator();
  ASSERT_TRUE(est.EstimateRows(Request(), Context()).ok());
  EXPECT_EQ(Counter("estimator.degraded.synopsis_unavailable"), 0u);
  EXPECT_EQ(Counter("estimator.degraded.synopsis_miss"), 0u);
  EXPECT_EQ(Counter("fault.retry.attempts"), 2u);
}

TEST_F(DegradationCascadeTest, MissingSampleFallsToHistogram) {
  statistics_->DropSynopsis("fact");
  statistics_->ClearSamples();
  RobustSampleEstimator est = MakeEstimator();
  Result<double> rows = est.EstimateRows(Request(), Context());
  ASSERT_TRUE(rows.ok());
  // Must agree with the histogram baseline over the same statistics.
  HistogramEstimator hist(statistics_.get());
  EXPECT_DOUBLE_EQ(rows.value(), hist.EstimateRows(Request(), {}).value());
  EXPECT_GE(Counter("estimator.degraded.sample_miss"), 1u);
  EXPECT_EQ(Counter("estimator.degraded.to_histogram"), 1u);
  EXPECT_EQ(Counter("estimator.degraded.to_default"), 0u);
}

TEST_F(DegradationCascadeTest, InjectedSampleFaultFallsToHistogram) {
  statistics_->DropSynopsis("fact");
  injector_.Arm(fault::sites::kSampleRead, fault::FaultSpec::Always());
  RobustSampleEstimator est = MakeEstimator();
  ASSERT_TRUE(est.EstimateRows(Request(), Context()).ok());
  EXPECT_GE(Counter("estimator.degraded.sample_unavailable"), 1u);
  EXPECT_EQ(Counter("estimator.degraded.to_histogram"), 1u);
}

TEST_F(DegradationCascadeTest, NothingLeftFallsToDefaultWide) {
  statistics_->DropSynopsis("fact");
  statistics_->ClearSamples();
  statistics_->ClearHistograms();
  RobustSampleEstimator est = MakeEstimator();
  Result<double> rows = est.EstimateRows(Request(), Context());
  ASSERT_TRUE(rows.ok());
  EXPECT_GE(rows.value(), 0.0);
  EXPECT_LE(rows.value(), 4000.0);
  EXPECT_EQ(rows.value(), est.DefaultWideSelectivity(Context()) * 4000.0);
  EXPECT_EQ(Counter("estimator.degraded.to_default"), 1u);
}

TEST_F(DegradationCascadeTest, DefaultWideIsMonotonicInThreshold) {
  statistics_->DropSynopsis("fact");
  statistics_->ClearSamples();
  statistics_->ClearHistograms();
  double prev = 0.0;
  for (double t : {0.05, 0.5, 0.95}) {
    RobustEstimatorConfig config;
    config.confidence_threshold = t;
    RobustSampleEstimator est(statistics_.get(), config);
    const double rows = est.EstimateRows(Request(), {}).value();
    EXPECT_GT(rows, prev) << "T=" << t;
    prev = rows;
  }
}

TEST(DegradationPlanChoiceTest, MissingAndFaultedSynopsisAgreeOnPlan) {
  // The integration claim from the issue: when the join synopsis is gone,
  // the optimizer's plan choice must match the per-table-sample baseline —
  // and an *unreadable* synopsis (fault armed) must behave exactly like a
  // *missing* one.
  core::Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.005;
  ASSERT_TRUE(tpch::LoadTpch(db.catalog(), config).ok());
  db.UpdateStatistics();
  workload::ThreeTableJoinScenario scenario;
  const opt::QuerySpec query = scenario.MakeQuery(12.0);

  // Baseline: drop every join synopsis so tier 2 is the best available.
  for (const auto& table : db.catalog()->TableNames()) {
    db.statistics()->DropSynopsis(table);
  }
  auto dropped = db.Plan(query, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();

  // Fresh statistics, synopsis present but unreadable.
  db.UpdateStatistics();
  db.fault_injector()->Arm(fault::sites::kSynopsisRead,
                           fault::FaultSpec::Always());
  auto faulted = db.Plan(query, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(dropped.value().label, faulted.value().label);

  // And the faulted plan still executes to a correct answer.
  db.fault_injector()->DisarmAll();
  auto reference = db.Execute(query, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(reference.ok());
  db.fault_injector()->Arm(fault::sites::kSynopsisRead,
                           fault::FaultSpec::Always());
  auto run = db.ExecutePlan(faulted.value());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().rows.ValueAt(0, 0).ToString(),
            reference.value().rows.ValueAt(0, 0).ToString());
}

}  // namespace
}  // namespace stats
}  // namespace robustqo
