#include "exec/scan_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "exec/sort_op.h"
#include "expr/expression.h"
#include "fault/governor.h"
#include "util/rng.h"

namespace robustqo {
namespace exec {
namespace {

using expr::And;
using expr::Between;
using expr::Col;
using expr::Ge;
using expr::LitInt;
using storage::Catalog;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

// One table with two indexed int columns (a, b) and a payload.
class ScanOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_unique<Table>(
        "t", Schema({{"id", DataType::kInt64},
                     {"a", DataType::kInt64},
                     {"b", DataType::kInt64},
                     {"v", DataType::kDouble}}));
    Rng rng(77);
    for (int64_t i = 0; i < 2000; ++i) {
      t->AppendRow({Value::Int64(i), Value::Int64(rng.NextInRange(0, 99)),
                    Value::Int64(rng.NextInRange(0, 99)),
                    Value::Double(rng.NextDouble())});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.BuildIndex("t", "a").ok());
    ASSERT_TRUE(catalog_.BuildIndex("t", "b").ok());
    ctx_.catalog = &catalog_;
  }

  uint64_t BruteForceCount(const expr::Expr& pred) {
    return expr::CountSatisfying(pred, *catalog_.GetTable("t"));
  }

  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(ScanOpsTest, SeqScanNoPredicateReturnsAllRows) {
  SeqScanOp scan("t", nullptr);
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), 2000u);
  EXPECT_EQ(out.schema().num_columns(), 4u);
  EXPECT_EQ(ctx_.meter.seq_tuples(), 2000u);
  EXPECT_EQ(ctx_.meter.output_tuples(), 2000u);
}

TEST_F(ScanOpsTest, SeqScanFiltersAndProjects) {
  auto pred = Ge(Col("a"), LitInt(50));
  SeqScanOp scan("t", pred, {"id", "v"});
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), BruteForceCount(*pred));
  EXPECT_EQ(out.schema().num_columns(), 2u);
  EXPECT_TRUE(out.schema().HasColumn("id"));
  EXPECT_FALSE(out.schema().HasColumn("a"));
}

TEST_F(ScanOpsTest, SeqScanPreservesRowOrder) {
  SeqScanOp scan("t", Ge(Col("id"), LitInt(1990)), {"id"});
  Table out = scan.Run(&ctx_).value();
  ASSERT_EQ(out.num_rows(), 10u);
  for (storage::Rid r = 0; r < 10; ++r) {
    EXPECT_EQ(out.ValueAt(r, 0).AsInt64(), 1990 + static_cast<int64_t>(r));
  }
}

TEST_F(ScanOpsTest, IndexRangeScanMatchesBruteForce) {
  auto pred = Between(Col("a"), Value::Int64(10), Value::Int64(19));
  IndexRangeScanOp scan("t", {"a", 10.0, 19.0}, pred);
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), BruteForceCount(*pred));
  // Cost shape: one seek, entries == fetched rows here.
  EXPECT_EQ(ctx_.meter.index_seeks(), 1u);
  EXPECT_EQ(ctx_.meter.index_entries(), out.num_rows());
  EXPECT_EQ(ctx_.meter.random_ios(), out.num_rows());
  EXPECT_EQ(ctx_.meter.seq_tuples(), 0u);
}

TEST_F(ScanOpsTest, IndexRangeScanAppliesResidual) {
  // Index covers a BETWEEN 10 AND 19; residual keeps only b >= 50.
  auto full = And({Between(Col("a"), Value::Int64(10), Value::Int64(19)),
                   Ge(Col("b"), LitInt(50))});
  IndexRangeScanOp scan("t", {"a", 10.0, 19.0}, full);
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), BruteForceCount(*full));
  // Fetches cover the whole index range; output is smaller.
  EXPECT_GT(ctx_.meter.random_ios(), out.num_rows());
}

TEST_F(ScanOpsTest, IndexRangeScanOpenBounds) {
  IndexRangeScanOp scan("t", {"a", std::nullopt, 4.0},
                        Between(Col("a"), Value::Int64(0), Value::Int64(4)));
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(),
            BruteForceCount(
                *Between(Col("a"), Value::Int64(0), Value::Int64(4))));
}

TEST_F(ScanOpsTest, IndexIntersectionMatchesBruteForce) {
  auto full = And({Between(Col("a"), Value::Int64(0), Value::Int64(29)),
                   Between(Col("b"), Value::Int64(0), Value::Int64(29))});
  IndexIntersectionOp scan(
      "t", {{"a", 0.0, 29.0}, {"b", 0.0, 29.0}}, full);
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), BruteForceCount(*full));
  EXPECT_EQ(ctx_.meter.index_seeks(), 2u);
  // Only the intersection survivors are fetched.
  EXPECT_EQ(ctx_.meter.random_ios(), out.num_rows());
  EXPECT_GT(ctx_.meter.index_entries(), out.num_rows());
}

TEST_F(ScanOpsTest, IndexIntersectionEmptyResult) {
  auto full = And({Between(Col("a"), Value::Int64(0), Value::Int64(0)),
                   Between(Col("b"), Value::Int64(99), Value::Int64(99))});
  IndexIntersectionOp scan("t", {{"a", 0.0, 0.0}, {"b", 99.0, 99.0}}, full);
  Table out = scan.Run(&ctx_).value();
  // Could be zero or a few rows; must match brute force exactly.
  EXPECT_EQ(out.num_rows(), BruteForceCount(*full));
}

TEST_F(ScanOpsTest, IndexIntersectionThreeIndexes) {
  ASSERT_TRUE(catalog_.BuildIndex("t", "id").ok());
  auto full = And({Between(Col("a"), Value::Int64(0), Value::Int64(49)),
                   Between(Col("b"), Value::Int64(0), Value::Int64(49)),
                   Between(Col("id"), Value::Int64(0), Value::Int64(999))});
  IndexIntersectionOp scan(
      "t", {{"a", 0.0, 49.0}, {"b", 0.0, 49.0}, {"id", 0.0, 999.0}}, full);
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), BruteForceCount(*full));
  EXPECT_EQ(ctx_.meter.index_seeks(), 3u);
}

TEST_F(ScanOpsTest, DescribeStrings) {
  EXPECT_NE(SeqScanOp("t", nullptr).Describe().find("SeqScan(t"),
            std::string::npos);
  EXPECT_NE(IndexRangeScanOp("t", {"a", 0.0, 1.0}, nullptr)
                .Describe()
                .find("t.a"),
            std::string::npos);
  IndexIntersectionOp ix("t", {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}}, nullptr);
  EXPECT_NE(ix.Describe().find("a & b"), std::string::npos);
}

// The governor sees one Tick(1, row_bytes) per output row, issued before
// the column gather: a row budget of L trips on row L + 1.
TEST_F(ScanOpsTest, SeqScanRowBudgetTripsOnRowLimitPlusOne) {
  fault::GovernorLimits limits;
  limits.row_limit = 100;
  fault::QueryGovernor governor(limits);
  ctx_.governor = &governor;
  SeqScanOp scan("t", Ge(Col("a"), LitInt(50)));
  ASSERT_GT(BruteForceCount(*Ge(Col("a"), LitInt(50))), 101u);
  Result<Table> out = scan.Run(&ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.rows_charged(), 101u);
  EXPECT_EQ(governor.row_trips(), 1u);
}

TEST_F(ScanOpsTest, SeqScanChargesOneTickPerOutputRow) {
  fault::QueryGovernor governor;
  ctx_.governor = &governor;
  SeqScanOp scan("t", Ge(Col("a"), LitInt(50)), {"id", "a"});
  Table out = scan.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), BruteForceCount(*Ge(Col("a"), LitInt(50))));
  EXPECT_EQ(governor.rows_charged(), out.num_rows());
  // Two projected columns: 16 bytes per row.
  EXPECT_EQ(governor.peak_memory_bytes(), out.num_rows() * 16);
  EXPECT_EQ(governor.memory_in_use(), out.num_rows() * 16);
}

// A NaN row must pass or fail a predicate alike whether the plan filters
// it with the batch kernels (SeqScan) or with the scalar residual after an
// index fetch (IndexRangeScan): IEEE 754, every comparison but <> false.
TEST_F(ScanOpsTest, NaNRowsFilterAlikeInKernelScanAndIndexResidual) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto t = std::make_unique<Table>(
      "f", Schema({{"id", DataType::kInt64}, {"d", DataType::kDouble}}));
  const std::vector<double> values = {nan, 5.0, -inf, inf, -0.0,
                                      0.0, 0.5, nan,  -5.0};
  for (size_t i = 0; i < values.size(); ++i) {
    t->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                  Value::Double(values[i])});
  }
  ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
  ASSERT_TRUE(catalog_.BuildIndex("f", "id").ok());
  const std::vector<expr::ExprPtr> preds = {
      expr::Eq(Col("d"), expr::LitDouble(5.0)),
      expr::Ne(Col("d"), expr::LitDouble(5.0)),
      expr::Le(Col("d"), expr::LitDouble(5.0)),
      expr::Gt(Col("d"), expr::LitDouble(0.0)),
      Ge(Col("d"), expr::LitDouble(-inf)),
      expr::Lt(Col("id"), expr::LitDouble(nan)),
      Between(Col("d"), Value::Double(0.0), Value::Double(1.0)),
      Between(Col("d"), Value::Double(nan), Value::Double(inf))};
  const auto ids = [](const Table& out) {
    std::vector<int64_t> v;
    for (storage::Rid r = 0; r < out.num_rows(); ++r) {
      v.push_back(out.column(0).Int64At(r));
    }
    return v;
  };
  for (const expr::ExprPtr& pred : preds) {
    SCOPED_TRACE(pred->ToString());
    const Table kernel = SeqScanOp("f", pred, {"id"}).Run(&ctx_).value();
    const Table residual =
        IndexRangeScanOp("f", {"id", std::nullopt, std::nullopt}, pred, {"id"})
            .Run(&ctx_)
            .value();
    EXPECT_EQ(ids(kernel), ids(residual));
  }
  // d <> 5 keeps both NaN rows; d <= 5 keeps neither.
  EXPECT_EQ(SeqScanOp("f", preds[1], {"id"}).Run(&ctx_).value().num_rows(),
            8u);
  EXPECT_EQ(IndexRangeScanOp("f", {"id", std::nullopt, std::nullopt},
                             preds[2], {"id"})
                .Run(&ctx_)
                .value()
                .num_rows(),
            6u);
}

// A double key column holding NaN: NaN is unordered under `<`, so the
// index and the sort park NaN rows after the ordered ones, and no range
// (open or closed) returns them.
class NanKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const double nan = std::nan("");
    const std::vector<double> d = {3,   nan, 1, 5,   nan, 2,  4,
                                   nan, 0.5, 6, 2.5, nan, 1.5};
    auto t = std::make_unique<Table>(
        "f", Schema({{"id", DataType::kInt64}, {"d", DataType::kDouble}}));
    for (size_t i = 0; i < d.size(); ++i) {
      t->AppendRow({Value::Int64(static_cast<int64_t>(i)), Value::Double(d[i])});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(catalog_.BuildIndex("f", "d").ok());
    ctx_.catalog = &catalog_;
  }

  // The `id` column of `op`'s output, in output order.
  std::vector<int64_t> Ids(const PhysicalOperator& op) {
    Result<Table> out = op.Run(&ctx_);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (!out.ok()) return {};
    const storage::ColumnVector& id =
        out.value().column(out.value().schema().ColumnIndex("id").value());
    std::vector<int64_t> ids;
    for (storage::Rid r = 0; r < out.value().num_rows(); ++r) {
      ids.push_back(id.Int64At(r));
    }
    return ids;
  }

  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(NanKeyTest, IndexRangeScanMatchesSeqScan) {
  const auto pred = Between(Col("d"), Value::Double(1.0), Value::Double(3.0));
  const std::vector<int64_t> expected = {0, 2, 5, 10, 12};
  EXPECT_EQ(Ids(SeqScanOp("f", pred)), expected);
  std::vector<int64_t> indexed =
      Ids(IndexRangeScanOp("f", IndexRange{"d", 1.0, 3.0}, pred, {}));
  std::sort(indexed.begin(), indexed.end());
  EXPECT_EQ(indexed, expected);
}

TEST_F(NanKeyTest, OpenRangesExcludeNan) {
  std::vector<int64_t> at_least_one =
      Ids(IndexRangeScanOp("f", IndexRange{"d", 1.0, std::nullopt}, nullptr, {}));
  std::sort(at_least_one.begin(), at_least_one.end());
  EXPECT_EQ(at_least_one, (std::vector<int64_t>{0, 2, 3, 5, 6, 9, 10, 12}));
  EXPECT_EQ(Ids(SeqScanOp("f", Ge(Col("d"), expr::LitDouble(1.0)))),
            (std::vector<int64_t>{0, 2, 3, 5, 6, 9, 10, 12}));

  const storage::SortedIndex* index = catalog_.GetIndex("f", "d");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_entries(), 13u);
  EXPECT_EQ(index->CountRange(1.0, std::nullopt), 8u);
  EXPECT_EQ(index->CountRange(std::nullopt, std::nullopt), 9u);
  EXPECT_EQ(index->RangeLookup(std::nullopt, std::nullopt).size(), 9u);
}

TEST_F(NanKeyTest, SortPutsNanRowsLastInRidOrder) {
  const SortOp sort(std::make_unique<SeqScanOp>("f", nullptr), "d");
  EXPECT_EQ(Ids(sort), (std::vector<int64_t>{8, 2, 12, 5, 10, 0, 6, 3, 9, 1,
                                              4, 7, 11}));
}

}  // namespace
}  // namespace exec
}  // namespace robustqo
