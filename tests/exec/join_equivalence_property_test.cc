// Property sweep: every join method must compute exactly the same multiset
// of result rows, for arbitrary data seeds, filter selectivities and key
// skews. (This is the guarantee that lets the experiments attribute every
// performance difference purely to plan choice.)

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_op.h"
#include "expr/expression.h"
#include "util/rng.h"

namespace robustqo {
namespace exec {
namespace {

using expr::Col;
using expr::Lt;
using expr::LitInt;
using storage::Catalog;
using storage::DataType;
using storage::Rid;
using storage::Schema;
using storage::Table;
using storage::Value;

// (seed, filter bound on dim attr 0..99, key skew: max duplicates per key)
using Param = std::tuple<uint64_t, int64_t, int64_t>;

class JoinEquivalence : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [seed, bound, skew] = GetParam();
    bound_ = bound;
    Rng rng(seed);
    auto dim = std::make_unique<Table>(
        "jdim", Schema({{"jd_id", DataType::kInt64},
                        {"jd_attr", DataType::kInt64}}));
    const int64_t dim_rows = 200;
    for (int64_t i = 1; i <= dim_rows; ++i) {
      dim->AppendRow({Value::Int64(i),
                      Value::Int64(rng.NextInRange(0, 99))});
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(dim)).ok());

    auto fact = std::make_unique<Table>(
        "jfact", Schema({{"jf_id", DataType::kInt64},
                         {"jf_fk", DataType::kInt64}}));
    int64_t id = 0;
    for (int64_t d = 1; d <= dim_rows; ++d) {
      const int64_t copies = rng.NextInRange(0, skew);
      for (int64_t c = 0; c < copies; ++c) {
        fact->AppendRow({Value::Int64(++id), Value::Int64(d)});
      }
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(fact)).ok());
    ASSERT_TRUE(catalog_.BuildIndex("jfact", "jf_fk").ok());
  }

  // The canonical result: sorted list of (jd_id, jf_id) pairs.
  static std::vector<std::pair<int64_t, int64_t>> Canonicalize(
      const Table& out) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    rows.reserve(out.num_rows());
    for (Rid r = 0; r < out.num_rows(); ++r) {
      rows.emplace_back(out.column("jd_id").Int64At(r),
                        out.column("jf_id").Int64At(r));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  OperatorPtr DimScan() {
    return std::make_unique<SeqScanOp>(
        "jdim", Lt(Col("jd_attr"), LitInt(bound_)),
        std::vector<std::string>{"jd_id"});
  }
  OperatorPtr FactScan() {
    return std::make_unique<SeqScanOp>("jfact", nullptr);
  }

  Table Run(PhysicalOperator* op) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    return op->Run(&ctx).value();
  }

  Catalog catalog_;
  int64_t bound_ = 0;
};

TEST_P(JoinEquivalence, AllMethodsAgree) {
  HashJoinOp hash(DimScan(), FactScan(), "jd_id", "jf_fk",
                  {"jd_id", "jf_id"});
  const auto reference = Canonicalize(Run(&hash));

  // Hash join, reversed build/probe.
  HashJoinOp hash_rev(FactScan(), DimScan(), "jf_fk", "jd_id",
                      {"jd_id", "jf_id"});
  EXPECT_EQ(Canonicalize(Run(&hash_rev)), reference);

  // Merge join over explicit sorts.
  MergeJoinOp merge(
      std::make_unique<SortOp>(DimScan(), "jd_id"),
      std::make_unique<SortOp>(FactScan(), "jf_fk"), "jd_id", "jf_fk",
      std::vector<std::string>{"jd_id", "jf_id"});
  EXPECT_EQ(Canonicalize(Run(&merge)), reference);

  // Indexed nested-loop join probing the fact FK index.
  IndexNestedLoopJoinOp inlj(DimScan(), "jd_id", "jfact", "jf_fk", nullptr,
                             std::vector<std::string>{"jd_id", "jf_id"});
  EXPECT_EQ(Canonicalize(Run(&inlj)), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalence,
    ::testing::Values(Param{1, 100, 3},   // no filter, light skew
                      Param{2, 50, 3},    // half the dims
                      Param{3, 10, 3},    // selective filter
                      Param{4, 0, 3},     // empty dim side
                      Param{5, 100, 0},   // empty fact side
                      Param{6, 100, 10},  // heavy duplication
                      Param{7, 25, 1},    // sparse fact (0-1 per key)
                      Param{8, 75, 6}, Param{9, 33, 4}, Param{10, 90, 8}));

}  // namespace
}  // namespace exec
}  // namespace robustqo
