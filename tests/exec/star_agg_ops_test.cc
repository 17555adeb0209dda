#include <gtest/gtest.h>

#include <memory>

#include "exec/agg_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/star_ops.h"
#include "expr/expression.h"
#include "util/rng.h"
#include "workload/star_schema.h"

namespace robustqo {
namespace exec {
namespace {

using expr::Col;
using expr::Eq;
using expr::Ge;
using expr::LitInt;
using storage::Catalog;
using storage::DataType;
using storage::Rid;
using storage::Schema;
using storage::Table;
using storage::Value;

// A small star schema via the workload generator.
class StarOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::StarSchemaConfig config;
    config.fact_rows = 20000;
    config.dim_rows = 100;
    config.groups = 10;
    config.seed = 3;
    ASSERT_TRUE(workload::LoadStarSchema(&catalog_, config).ok());
    ctx_.catalog = &catalog_;
  }

  std::vector<DimSemiJoin> AllDims(int64_t v1, int64_t v2, int64_t v3) {
    return {
        {"dim1", Eq(Col("d1_attr"), LitInt(v1)), "d1_id", "f_d1"},
        {"dim2", Eq(Col("d2_attr"), LitInt(v2)), "d2_id", "f_d2"},
        {"dim3", Eq(Col("d3_attr"), LitInt(v3)), "d3_id", "f_d3"},
    };
  }

  // Reference result: cascaded hash joins.
  uint64_t HashPlanCount(int64_t v1, int64_t v2, int64_t v3) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    OperatorPtr plan = std::make_unique<SeqScanOp>("fact", nullptr);
    const char* dims[] = {"dim1", "dim2", "dim3"};
    const char* attrs[] = {"d1_attr", "d2_attr", "d3_attr"};
    const char* pks[] = {"d1_id", "d2_id", "d3_id"};
    const char* fks[] = {"f_d1", "f_d2", "f_d3"};
    const int64_t vals[] = {v1, v2, v3};
    for (int d = 0; d < 3; ++d) {
      auto dim_scan = std::make_unique<SeqScanOp>(
          dims[d], Eq(Col(attrs[d]), LitInt(vals[d])),
          std::vector<std::string>{pks[d]});
      plan = std::make_unique<HashJoinOp>(std::move(dim_scan),
                                          std::move(plan), pks[d], fks[d]);
    }
    return plan->Run(&ctx).value().num_rows();
  }

  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(StarOpsTest, SemiJoinMatchesHashCascade) {
  for (int64_t offset : {0, 1, 5}) {
    StarSemiJoinOp semi("fact", AllDims(2, (2 + offset) % 10,
                                        (2 + offset) % 10));
    ExecContext ctx;
    ctx.catalog = &catalog_;
    Table out = semi.Run(&ctx).value();
    EXPECT_EQ(out.num_rows(),
              HashPlanCount(2, (2 + offset) % 10, (2 + offset) % 10))
        << "offset=" << offset;
  }
}

TEST_F(StarOpsTest, SemiJoinOutputsFactColumnsOnly) {
  StarSemiJoinOp semi("fact", AllDims(0, 0, 0), nullptr, {"f_id", "f_m1"});
  Table out = semi.Run(&ctx_).value();
  EXPECT_EQ(out.schema().num_columns(), 2u);
  EXPECT_TRUE(out.schema().HasColumn("f_m1"));
}

TEST_F(StarOpsTest, SemiJoinChargesFetchPerSurvivor) {
  StarSemiJoinOp semi("fact", AllDims(0, 0, 0));
  Table out = semi.Run(&ctx_).value();
  EXPECT_EQ(ctx_.meter.random_ios(), out.num_rows());
  // One index probe per selected dimension row (10% of 100 rows x 3 dims).
  EXPECT_EQ(ctx_.meter.index_seeks(), 30u);
}

TEST_F(StarOpsTest, PartialSemiJoinPlusHash) {
  // Semijoin two dims, hash the third — the paper's hybrid plan.
  std::vector<DimSemiJoin> two = {AllDims(1, 1, 1)[0], AllDims(1, 1, 1)[1]};
  auto semi = std::make_unique<StarSemiJoinOp>("fact", two);
  auto dim3 = std::make_unique<SeqScanOp>(
      "dim3", Eq(Col("d3_attr"), LitInt(1)),
      std::vector<std::string>{"d3_id"});
  HashJoinOp hybrid(std::move(dim3), std::move(semi), "d3_id", "f_d3");
  ExecContext ctx;
  ctx.catalog = &catalog_;
  Table out = hybrid.Run(&ctx).value();
  EXPECT_EQ(out.num_rows(), HashPlanCount(1, 1, 1));
}

TEST_F(StarOpsTest, SemiJoinDisjointGroupsYieldFewRows) {
  // Misaligned dim2/dim3 filters: only the rare non-aligned offsets match.
  StarSemiJoinOp aligned("fact", AllDims(4, 4, 4));
  ExecContext ctx1;
  ctx1.catalog = &catalog_;
  const uint64_t aligned_rows = aligned.Run(&ctx1).value().num_rows();
  StarSemiJoinOp misaligned("fact", AllDims(4, 5, 6));
  ExecContext ctx2;
  ctx2.catalog = &catalog_;
  const uint64_t misaligned_rows = misaligned.Run(&ctx2).value().num_rows();
  EXPECT_GT(aligned_rows, 10 * std::max<uint64_t>(1, misaligned_rows));
}

class AggOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = std::make_unique<Table>(
        "t", Schema({{"g", DataType::kInt64},
                     {"x", DataType::kInt64},
                     {"w", DataType::kDouble}}));
    // g in {0,1,2}; x = 10*g + i.
    for (int64_t g = 0; g < 3; ++g) {
      for (int64_t i = 0; i < 4; ++i) {
        t->AppendRow({Value::Int64(g), Value::Int64(10 * g + i),
                      Value::Double(0.5 * static_cast<double>(i))});
      }
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(t)).ok());
    ctx_.catalog = &catalog_;
  }

  OperatorPtr Scan() { return std::make_unique<SeqScanOp>("t", nullptr); }

  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(AggOpsTest, ScalarAggregates) {
  ScalarAggregateOp agg(Scan(), {{AggKind::kCount, "", "n"},
                                 {AggKind::kSum, "x", "sx"},
                                 {AggKind::kMin, "x", "mn"},
                                 {AggKind::kMax, "x", "mx"},
                                 {AggKind::kAvg, "w", "aw"}});
  Table out = agg.Run(&ctx_).value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.column("n").Int64At(0), 12);
  EXPECT_EQ(out.column("sx").DoubleAt(0), 0 + 1 + 2 + 3 + 10 + 11 + 12 + 13 +
                                              20 + 21 + 22 + 23);
  EXPECT_EQ(out.column("mn").DoubleAt(0), 0.0);
  EXPECT_EQ(out.column("mx").DoubleAt(0), 23.0);
  EXPECT_DOUBLE_EQ(out.column("aw").DoubleAt(0), (0.0 + 0.5 + 1.0 + 1.5) / 4);
}

TEST_F(AggOpsTest, ScalarAggregateOnEmptyInput) {
  auto scan = std::make_unique<SeqScanOp>(
      "t", Eq(Col("g"), LitInt(99)));
  ScalarAggregateOp agg(std::move(scan), {{AggKind::kCount, "", "n"},
                                          {AggKind::kSum, "x", "s"}});
  Table out = agg.Run(&ctx_).value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.column("n").Int64At(0), 0);
  EXPECT_EQ(out.column("s").DoubleAt(0), 0.0);
}

TEST_F(AggOpsTest, GroupByAggregates) {
  GroupByAggregateOp agg(Scan(), {"g"},
                         {{AggKind::kCount, "", "n"},
                          {AggKind::kSum, "x", "sx"}});
  Table out = agg.Run(&ctx_).value();
  ASSERT_EQ(out.num_rows(), 3u);
  // Deterministic output order (sorted by group key).
  for (Rid r = 0; r < 3; ++r) {
    EXPECT_EQ(out.column("g").Int64At(r), static_cast<int64_t>(r));
    EXPECT_EQ(out.column("n").Int64At(r), 4);
    EXPECT_EQ(out.column("sx").DoubleAt(r),
              static_cast<double>(40 * r + 6));
  }
}

// A residual filter is a scan predicate: the executor has no separate
// filter operator.
TEST_F(AggOpsTest, FilterOp) {
  SeqScanOp filter("t", Ge(Col("x"), LitInt(12)));
  Table out = filter.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), 6u);
  EXPECT_EQ(out.schema().num_columns(), 3u);
}

TEST_F(AggOpsTest, ProjectOp) {
  ProjectOp project(Scan(), {"w", "g"});
  Table out = project.Run(&ctx_).value();
  EXPECT_EQ(out.num_rows(), 12u);
  ASSERT_EQ(out.schema().num_columns(), 2u);
  EXPECT_EQ(out.schema().column(0).name, "w");
  EXPECT_EQ(out.schema().column(1).name, "g");
}

TEST_F(AggOpsTest, DescribeStrings) {
  ScalarAggregateOp agg(Scan(), {{AggKind::kSum, "x", "s"}});
  EXPECT_NE(agg.Describe().find("SUM(x)"), std::string::npos);
  GroupByAggregateOp gagg(Scan(), {"g"}, {{AggKind::kCount, "", "n"}});
  EXPECT_NE(gagg.Describe().find("COUNT(*)"), std::string::npos);
  SeqScanOp filter("t", Ge(Col("x"), LitInt(1)));
  EXPECT_NE(filter.Describe().find("SeqScan(t, "), std::string::npos);
  ProjectOp project(Scan(), {"g"});
  EXPECT_NE(project.Describe().find("Project(g)"), std::string::npos);
}

}  // namespace
}  // namespace exec
}  // namespace robustqo
