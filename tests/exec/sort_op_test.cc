#include "exec/sort_op.h"

#include <gtest/gtest.h>

#include <memory>

#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "expr/expression.h"
#include "util/rng.h"

namespace robustqo {
namespace exec {
namespace {

using storage::Catalog;
using storage::DataType;
using storage::Rid;
using storage::Schema;
using storage::Table;
using storage::Value;

class SortOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_unique<Table>(
        "t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
    Rng rng(9);
    for (int64_t i = 0; i < 500; ++i) {
      t->AppendRow({Value::Int64(rng.NextInRange(0, 99)), Value::Int64(i)});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ctx_.catalog = &catalog_;
  }

  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(SortOpTest, OutputSortedAndComplete) {
  SortOp sort(std::make_unique<SeqScanOp>("t", nullptr), "k");
  Table out = sort.Run(&ctx_).value();
  ASSERT_EQ(out.num_rows(), 500u);
  int64_t prev = INT64_MIN;
  for (Rid r = 0; r < out.num_rows(); ++r) {
    const int64_t k = out.column("k").Int64At(r);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

TEST_F(SortOpTest, StableWithinEqualKeys) {
  SortOp sort(std::make_unique<SeqScanOp>("t", nullptr), "k");
  Table out = sort.Run(&ctx_).value();
  int64_t prev_k = INT64_MIN;
  int64_t prev_v = INT64_MIN;
  for (Rid r = 0; r < out.num_rows(); ++r) {
    const int64_t k = out.column("k").Int64At(r);
    const int64_t v = out.column("v").Int64At(r);
    if (k == prev_k) EXPECT_GT(v, prev_v);  // original (v) order preserved
    prev_k = k;
    prev_v = v;
  }
}

TEST_F(SortOpTest, ChargesSortCostExactly) {
  SortOp sort(std::make_unique<SeqScanOp>("t", nullptr), "k");
  Table out = sort.Run(&ctx_).value();
  CostModel m;
  const double expected = SeqScanCost(m, 500, 500) + SortCost(m, 500);
  EXPECT_NEAR(ctx_.meter.total_seconds(), expected, 1e-12);
}

TEST_F(SortOpTest, SortFeedsMergeJoin) {
  // Self-equi-join on k: merge join over explicitly sorted inputs must
  // produce the same result size as a hash join over unsorted inputs.
  ExecContext ctx_hash;
  ctx_hash.catalog = &catalog_;
  HashJoinOp hash(
      std::make_unique<SeqScanOp>("t", nullptr,
                                  std::vector<std::string>{"k"}),
      std::make_unique<SeqScanOp>("t", nullptr,
                                  std::vector<std::string>{"v", "k"}),
      "k", "k", std::vector<std::string>{"v"});
  const uint64_t expected_rows = hash.Run(&ctx_hash).value().num_rows();

  ExecContext ctx_merge;
  ctx_merge.catalog = &catalog_;
  MergeJoinOp merge(
      std::make_unique<SortOp>(
          std::make_unique<SeqScanOp>("t", nullptr,
                                      std::vector<std::string>{"k"}),
          "k"),
      std::make_unique<SortOp>(
          std::make_unique<SeqScanOp>("t", nullptr,
                                      std::vector<std::string>{"v", "k"}),
          "k"),
      "k", "k", std::vector<std::string>{"v"});
  EXPECT_EQ(merge.Run(&ctx_merge).value().num_rows(), expected_rows);
}

TEST_F(SortOpTest, EmptyInput) {
  auto scan = std::make_unique<SeqScanOp>(
      "t", expr::Eq(expr::Col("k"), expr::LitInt(-1)));
  SortOp sort(std::move(scan), "k");
  Table out = sort.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST_F(SortOpTest, DescribeAndTree) {
  SortOp sort(std::make_unique<SeqScanOp>("t", nullptr), "k");
  EXPECT_EQ(sort.Describe(), "Sort(k)");
  EXPECT_EQ(sort.children().size(), 1u);
}

}  // namespace
}  // namespace exec
}  // namespace robustqo
