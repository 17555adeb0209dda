#include "exec/scan_ops.h"

#include <gtest/gtest.h>

#include <memory>

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

}  // namespace
}  // namespace exec
}  // namespace robustqo
