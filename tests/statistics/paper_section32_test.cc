// Paper Section 3.2's worked example, reproduced literally: for the query
// A |x| B |x| C with A -> B -> C foreign keys, the optimizer needs
// cardinalities for seven logical expressions; the sample (synopsis) for A
// answers A, A|x|B, A|x|C and A|x|B|x|C; B's answers B and B|x|C; C's
// answers C — every estimate direct from one sample, no error build-up.

#include <gtest/gtest.h>

#include <memory>

#include "expr/expression.h"
#include "storage/date.h"
#include "statistics/robust_sample_estimator.h"
#include "statistics/statistics_catalog.h"
#include "tpch/tpch_gen.h"

namespace robustqo {
namespace stats {
namespace {

// A = lineitem, B = orders, C = customer (lineitem -> orders -> customer).
class Section32Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new storage::Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, config).ok());
    statistics_ = new StatisticsCatalog(catalog_);
    StatisticsConfig stats_config;
    stats_config.sample_size = 300;
    statistics_->BuildAllSamples(stats_config);
  }
  static void TearDownTestSuite() {
    delete statistics_;
    delete catalog_;
    statistics_ = nullptr;
    catalog_ = nullptr;
  }

  static storage::Catalog* catalog_;
  static StatisticsCatalog* statistics_;
};

storage::Catalog* Section32Test::catalog_ = nullptr;
StatisticsCatalog* Section32Test::statistics_ = nullptr;

TEST_F(Section32Test, EachSubexpressionResolvesToTheRightSynopsis) {
  struct Case {
    std::set<std::string> tables;
    const char* expected_root;
  };
  const Case cases[] = {
      {{"lineitem"}, "lineitem"},
      {{"orders"}, "orders"},
      {{"customer"}, "customer"},
      {{"lineitem", "orders"}, "lineitem"},
      {{"lineitem", "customer"}, "lineitem"},  // A|x|C via transitive FKs
      {{"orders", "customer"}, "orders"},
      {{"lineitem", "orders", "customer"}, "lineitem"},
  };
  for (const Case& c : cases) {
    const JoinSynopsis* synopsis = statistics_->FindCoveringSynopsis(c.tables);
    ASSERT_NE(synopsis, nullptr);
    EXPECT_EQ(synopsis->root_table(), c.expected_root);
  }
}

TEST_F(Section32Test, AllSevenEstimatesComeFromSamplesDirectly) {
  RobustSampleEstimator estimator(statistics_, RobustEstimatorConfig{});
  // Selection predicates on each relation.
  auto pred_a = expr::Lt(expr::Col("l_quantity"), expr::LitInt(10));
  auto pred_b = expr::Gt(expr::Col("o_totalprice"), expr::LitDouble(1e5));
  auto pred_c = expr::Gt(expr::Col("c_acctbal"), expr::LitDouble(0.0));
  const std::set<std::string> a{"lineitem"};
  const std::set<std::string> ab{"lineitem", "orders"};
  const std::set<std::string> abc{"lineitem", "orders", "customer"};
  const std::set<std::string> bc{"orders", "customer"};
  for (const auto& request : std::vector<CardinalityRequest>{
           {a, pred_a},
           {{"orders"}, pred_b},
           {{"customer"}, pred_c},
           {ab, expr::And({pred_a, pred_b})},
           {{"lineitem", "customer"}, expr::And({pred_a, pred_c})},
           {bc, expr::And({pred_b, pred_c})},
           {abc, expr::And({pred_a, pred_b, pred_c})},
       }) {
    // Every request is answered by the primary (synopsis) path — the
    // Observe() call succeeds, meaning no AVI fallback was needed.
    EXPECT_TRUE(estimator.Observe(request, {}).ok());
    Result<double> rows = estimator.EstimateRows(request, {});
    ASSERT_TRUE(rows.ok());
    EXPECT_GE(rows.value(), 0.0);
  }
}

TEST_F(Section32Test, NoErrorBuildUpComparedToAviChaining) {
  // A strongly correlated pair across the A |x| B join: a lineitem ships
  // 1-121 days after its order's date, so a window on o_orderdate and a
  // window on l_shipdate overlap far more often than independence would
  // predict. The joint estimate from the A-synopsis must track the truth;
  // multiplying the marginals (AVI chaining) is biased an order of
  // magnitude low.
  const int64_t start = storage::DateToDays(1995, 3, 1);
  auto pred_orders = expr::Between(expr::Col("o_orderdate"),
                                   storage::Value::Date(start),
                                   storage::Value::Date(start + 59));
  auto pred_ship = expr::Between(expr::Col("l_shipdate"),
                                 storage::Value::Date(start),
                                 storage::Value::Date(start + 89));
  auto pred = expr::And({pred_ship, pred_orders});
  CardinalityRequest joint{{"lineitem", "orders"}, pred};

  RobustSampleEstimator estimator(statistics_, RobustEstimatorConfig{});
  auto direct = estimator.Observe(joint, {});
  ASSERT_TRUE(direct.ok());

  // Ground truth by counting over the actual join.
  const storage::Table* lineitem = catalog_->GetTable("lineitem");
  const storage::Table* orders = catalog_->GetTable("orders");
  std::unordered_map<int64_t, int64_t> order_date;
  for (storage::Rid r = 0; r < orders->num_rows(); ++r) {
    order_date[orders->column("o_orderkey").Int64At(r)] =
        orders->column("o_orderdate").Int64At(r);
  }
  uint64_t truth = 0;
  uint64_t marginal_a = 0;
  uint64_t marginal_b_rows = 0;
  for (storage::Rid r = 0; r < lineitem->num_rows(); ++r) {
    const int64_t ship = lineitem->column("l_shipdate").Int64At(r);
    const int64_t odate =
        order_date[lineitem->column("l_orderkey").Int64At(r)];
    const bool a_hit = ship >= start && ship <= start + 89;
    const bool b_hit = odate >= start && odate <= start + 59;
    if (a_hit) ++marginal_a;
    if (b_hit) ++marginal_b_rows;
    if (a_hit && b_hit) ++truth;
  }
  const double n = static_cast<double>(lineitem->num_rows());
  const double truth_sel = static_cast<double>(truth) / n;
  const double avi_sel = (static_cast<double>(marginal_a) / n) *
                         (static_cast<double>(marginal_b_rows) / n);
  // The correlation must be real for this test to mean anything.
  ASSERT_GT(truth_sel, 2.0 * avi_sel);

  const double direct_sel =
      static_cast<double>(direct.value().satisfying) /
      static_cast<double>(direct.value().sample_size);
  // Direct estimate lands within a factor ~2 of truth; AVI is biased low
  // by the correlation factor.
  EXPECT_GT(direct_sel, truth_sel * 0.5);
  EXPECT_LT(direct_sel, truth_sel * 2.0);
}

}  // namespace
}  // namespace stats
}  // namespace robustqo
