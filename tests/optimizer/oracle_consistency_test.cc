// With exact cardinalities, the optimizer's predicted cost for the chosen
// plan must equal the cost the executor actually meters (the two share the
// same formulas; estimation error is the only permitted divergence). This
// pins the "cost model consistency" substitution claim in DESIGN.md.

#include <gtest/gtest.h>

#include "exec/operator.h"
#include "optimizer/optimizer.h"
#include "oracle_estimator.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"
#include "workload/star_schema.h"

namespace robustqo {
namespace {

double RelativeGap(double a, double b) {
  return std::abs(a - b) / std::max(1e-9, std::max(a, b));
}

class OracleConsistencyTpch : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new storage::Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;  // ~12k lineitem rows: fast full joins
    ASSERT_TRUE(tpch::LoadTpch(catalog_, config).ok());
    oracle_ = new testing_support::OracleEstimator(catalog_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete catalog_;
    oracle_ = nullptr;
    catalog_ = nullptr;
  }

  void CheckConsistency(const opt::QuerySpec& query) {
    opt::Optimizer optimizer(catalog_, oracle_);
    Result<opt::PlannedQuery> plan = optimizer.Optimize(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    exec::ExecContext ctx;
    ctx.catalog = catalog_;
    storage::Table out = plan.value().root->Run(&ctx).value();
    EXPECT_LT(RelativeGap(plan.value().estimated_cost,
                          ctx.meter.total_seconds()),
              1e-6)
        << "plan " << plan.value().label << ": predicted "
        << plan.value().estimated_cost << " vs metered "
        << ctx.meter.total_seconds();
  }

  static storage::Catalog* catalog_;
  static testing_support::OracleEstimator* oracle_;
};

storage::Catalog* OracleConsistencyTpch::catalog_ = nullptr;
testing_support::OracleEstimator* OracleConsistencyTpch::oracle_ = nullptr;

TEST_F(OracleConsistencyTpch, SingleTableAcrossSelectivities) {
  workload::SingleTableScenario scenario;
  for (double offset : {40.0, 70.0, 92.0}) {
    CheckConsistency(scenario.MakeQuery(offset));
  }
}

TEST_F(OracleConsistencyTpch, ThreeTableJoinAcrossSelectivities) {
  workload::ThreeTableJoinScenario scenario;
  for (double offset : {10.0, 13.5, 15.0}) {
    CheckConsistency(scenario.MakeQuery(offset));
  }
}

TEST_F(OracleConsistencyTpch, TwoTableJoinNoPredicates) {
  opt::QuerySpec query;
  query.tables.push_back({"lineitem", nullptr});
  query.tables.push_back({"orders", nullptr});
  query.aggregates.push_back({exec::AggKind::kCount, "", "n"});
  CheckConsistency(query);
}

TEST_F(OracleConsistencyTpch, OrdersCustomerChain) {
  opt::QuerySpec query;
  query.tables.push_back({"orders", nullptr});
  query.tables.push_back(
      {"customer",
       expr::Between(expr::Col("c_acctbal"), storage::Value::Double(0.0),
                     storage::Value::Double(1000.0))});
  query.aggregates.push_back({exec::AggKind::kSum, "o_totalprice", "s"});
  CheckConsistency(query);
}

TEST_F(OracleConsistencyTpch, SortMergePlansAlsoConsistent) {
  // Restrict the plan space so sort-fed merge joins are chosen, and check
  // the SortCost formula agrees with ChargeSortWork end to end.
  workload::ThreeTableJoinScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(11.0);
  opt::Optimizer optimizer(catalog_, oracle_);
  opt::OptimizerOptions options;
  options.enable_hash_join = false;
  options.enable_index_nested_loop = false;
  Result<opt::PlannedQuery> plan = optimizer.Optimize(query, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  exec::ExecContext ctx;
  ctx.catalog = catalog_;
  storage::Table out = plan.value().root->Run(&ctx).value();
  EXPECT_LT(RelativeGap(plan.value().estimated_cost,
                        ctx.meter.total_seconds()),
            1e-6)
      << plan.value().label;
}

TEST_F(OracleConsistencyTpch, OrderByLimitDecorationsConsistent) {
  opt::QuerySpec query;
  query.tables.push_back(
      {"part", expr::Le(expr::Col("p_size"), expr::LitInt(25))});
  query.select_columns = {"p_partkey", "p_size"};
  query.order_by = "p_size";
  query.limit = 10;
  CheckConsistency(query);
}

TEST_F(OracleConsistencyTpch, OracleRowPredictionsExact) {
  // The chosen plan's estimated row count must equal the actual result
  // size of the pre-aggregation tree for an exact estimator.
  workload::SingleTableScenario scenario;
  opt::QuerySpec query = scenario.MakeQuery(60);
  query.aggregates.clear();  // return join rows directly
  opt::Optimizer optimizer(catalog_, oracle_);
  Result<opt::PlannedQuery> plan = optimizer.Optimize(query);
  ASSERT_TRUE(plan.ok());
  exec::ExecContext ctx;
  ctx.catalog = catalog_;
  storage::Table out = plan.value().root->Run(&ctx).value();
  EXPECT_DOUBLE_EQ(plan.value().estimated_rows,
                   static_cast<double>(out.num_rows()));
}

class OracleConsistencyStar : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::StarSchemaConfig config;
    config.fact_rows = 20000;
    config.dim_rows = 100;
    ASSERT_TRUE(workload::LoadStarSchema(&catalog_, config).ok());
    oracle_ = std::make_unique<testing_support::OracleEstimator>(&catalog_);
  }

  storage::Catalog catalog_;
  std::unique_ptr<testing_support::OracleEstimator> oracle_;
};

TEST_F(OracleConsistencyStar, StarJoinAllOffsets) {
  workload::StarJoinScenario scenario;
  for (double offset : {0.0, 2.0, 6.0, 9.0}) {
    opt::QuerySpec query = scenario.MakeQuery(offset);
    opt::Optimizer optimizer(&catalog_, oracle_.get());
    Result<opt::PlannedQuery> plan = optimizer.Optimize(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    storage::Table out = plan.value().root->Run(&ctx).value();
    EXPECT_LT(RelativeGap(plan.value().estimated_cost,
                          ctx.meter.total_seconds()),
              1e-6)
        << "offset " << offset << " plan " << plan.value().label;
  }
}

TEST_F(OracleConsistencyStar, OracleChoosesSemijoinOnlyWhenFewSurvivors) {
  // At offset 9 (few joining fact rows) the semijoin-style plan should win
  // under exact cardinalities; at offset 0 (max alignment, ~5%) the
  // hash-cascade should win.
  workload::StarJoinScenario scenario;
  opt::Optimizer optimizer(&catalog_, oracle_.get());
  auto low = optimizer.Optimize(scenario.MakeQuery(9));
  ASSERT_TRUE(low.ok());
  EXPECT_NE(low.value().label.find("Star("), std::string::npos)
      << low.value().label;
  auto high = optimizer.Optimize(scenario.MakeQuery(0));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.value().label.find("Star("), std::string::npos)
      << high.value().label;
}

}  // namespace
}  // namespace robustqo
