// Batch predicate evaluation must agree with the scalar expression
// interpreter bit-for-bit: every kernel path (column-vs-literal compares in
// all type pairings, BETWEEN, AND/OR/NOT bitmaps, string contains) and the
// per-row fallback (arithmetic, column-vs-column) are property-tested
// against expr::CountSatisfying / EvaluateBool on randomized tables.

#include "perf/batch_eval.h"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "expr/expression.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "util/rng.h"

namespace robustqo {
namespace perf {
namespace {

using expr::And;
using expr::Between;
using expr::Col;
using expr::Compare;
using expr::CompareOp;
using expr::Eq;
using expr::ExprPtr;
using expr::Ge;
using expr::Gt;
using expr::Le;
using expr::Lit;
using expr::LitDouble;
using expr::LitInt;
using expr::LitString;
using expr::Lt;
using expr::Ne;
using expr::Not;
using expr::Or;
using expr::StringContains;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

Table MakeRandomTable(uint64_t seed, size_t rows) {
  Table table("t", Schema({{"a", DataType::kInt64},
                           {"b", DataType::kDouble},
                           {"s", DataType::kString},
                           {"d", DataType::kDate}}));
  Rng rng(seed);
  const std::vector<std::string> words = {"alpha", "beta",  "gamma", "delta",
                                          "epsln", "zeta",  "",      "beta2",
                                          "ALPHA", "a b c", "xyzzy", "betamax"};
  for (size_t i = 0; i < rows; ++i) {
    table.AppendRow(
        {Value::Int64(rng.NextInRange(-20, 20)),
         Value::Double(rng.NextDoubleInRange(-2.0, 2.0)),
         Value::String(words[rng.NextBounded(words.size())]),
         Value::Date(rng.NextInRange(0, 50))});
  }
  return table;
}

// Verifies popcount AND per-row mask against the scalar interpreter.
void ExpectMatchesScalar(const ExprPtr& pred, const Table& table) {
  std::vector<uint8_t> mask;
  const uint64_t batch = BatchEvaluateMask(*pred, table, &mask);
  const uint64_t scalar = expr::CountSatisfying(*pred, table);
  ASSERT_EQ(batch, scalar) << pred->ToString();
  ASSERT_EQ(mask.size(), table.num_rows());
  for (storage::Rid rid = 0; rid < table.num_rows(); ++rid) {
    EXPECT_EQ(mask[rid] != 0, pred->EvaluateBool(table, rid))
        << pred->ToString() << " row " << rid;
  }
  EXPECT_EQ(BatchCountSatisfying(*pred, table), scalar);
}

class BatchEvalTest : public ::testing::Test {
 protected:
  BatchEvalTest() : table_(MakeRandomTable(17, 200)) {}
  Table table_;
};

TEST_F(BatchEvalTest, ComparisonKernelsAllOpsAllTypePairs) {
  const std::vector<CompareOp> ops = {CompareOp::kEq, CompareOp::kNe,
                                      CompareOp::kLt, CompareOp::kLe,
                                      CompareOp::kGt, CompareOp::kGe};
  const std::vector<std::pair<std::string, Value>> pairs = {
      {"a", Value::Int64(3)},        // int64 vs int64 — exact path
      {"a", Value::Double(2.5)},     // int64 vs double — widened path
      {"b", Value::Double(0.25)},    // double vs double
      {"b", Value::Int64(1)},        // double vs int64
      {"d", Value::Date(25)},        // date vs date — exact path
      {"d", Value::Int64(25)},       // date vs int64 — exact path
      {"s", Value::String("beta")},  // string vs string
  };
  for (CompareOp op : ops) {
    for (const auto& [col, lit] : pairs) {
      ExpectMatchesScalar(Compare(op, Col(col), Lit(lit)), table_);
      // Literal-on-the-left uses the flipped kernel.
      ExpectMatchesScalar(Compare(op, Lit(lit), Col(col)), table_);
    }
  }
}

TEST_F(BatchEvalTest, BetweenKernels) {
  ExpectMatchesScalar(Between(Col("a"), Value::Int64(-5), Value::Int64(5)),
                      table_);
  ExpectMatchesScalar(Between(Col("a"), Value::Int64(5), Value::Int64(-5)),
                      table_);  // empty range
  ExpectMatchesScalar(
      Between(Col("a"), Value::Double(-4.5), Value::Int64(12)), table_);
  ExpectMatchesScalar(
      Between(Col("b"), Value::Double(-0.5), Value::Double(0.5)), table_);
  ExpectMatchesScalar(Between(Col("d"), Value::Date(10), Value::Date(30)),
                      table_);
  ExpectMatchesScalar(
      Between(Col("s"), Value::String("b"), Value::String("c")), table_);
  // Inverted bounds (lo > hi) select nothing on every type pairing.
  ExpectMatchesScalar(
      Between(Col("b"), Value::Double(0.5), Value::Double(-0.5)), table_);
  ExpectMatchesScalar(Between(Col("d"), Value::Date(30), Value::Date(10)),
                      table_);
  ExpectMatchesScalar(
      Between(Col("s"), Value::String("c"), Value::String("b")), table_);
  ExpectMatchesScalar(
      Between(Col("a"), Value::Double(4.5), Value::Double(-4.5)), table_);
  // An integer column with double bounds widens to double.
  ExpectMatchesScalar(
      Between(Col("a"), Value::Double(-4.5), Value::Double(4.5)), table_);
  ExpectMatchesScalar(
      Between(Col("a"), Value::Double(3.0), Value::Double(3.0)), table_);
  ExpectMatchesScalar(
      Between(Col("a"), Value::Int64(-3), Value::Double(2.5)), table_);
  ExpectMatchesScalar(
      Between(Col("d"), Value::Double(9.5), Value::Double(30.5)), table_);
}

// Doubles that Value::Compare orders unlike IEEE 754 (NaN) or that sit on
// its edges (±inf, -0.0): the scalar path follows IEEE, as the kernels do.
TEST_F(BatchEvalTest, NaNInfinityAndNegativeZeroFollowIeee) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Table table("f", Schema({{"a", DataType::kInt64}, {"d", DataType::kDouble}}));
  const std::vector<double> values = {nan, 5.0, -inf, inf, -0.0, 0.0,
                                      0.5, nan, -5.0, 1.0};
  for (size_t i = 0; i < values.size(); ++i) {
    table.AppendRow({Value::Int64(static_cast<int64_t>(i) - 3),
                     Value::Double(values[i])});
  }
  const std::vector<CompareOp> ops = {CompareOp::kEq, CompareOp::kNe,
                                      CompareOp::kLt, CompareOp::kLe,
                                      CompareOp::kGt, CompareOp::kGe};
  const std::vector<Value> literals = {
      Value::Double(5.0), Value::Double(0.0),  Value::Double(-0.0),
      Value::Double(inf), Value::Double(-inf), Value::Double(nan),
      Value::Int64(0),    Value::Int64(5)};
  for (CompareOp op : ops) {
    for (const Value& lit : literals) {
      for (const char* col : {"a", "d"}) {
        ExpectMatchesScalar(Compare(op, Col(col), Lit(lit)), table);
        ExpectMatchesScalar(Compare(op, Lit(lit), Col(col)), table);
      }
    }
  }
  const std::vector<std::pair<Value, Value>> ranges = {
      {Value::Double(0.0), Value::Double(1.0)},
      {Value::Double(-0.0), Value::Double(0.0)},
      {Value::Double(-inf), Value::Double(inf)},
      {Value::Double(nan), Value::Double(inf)},
      {Value::Double(-inf), Value::Double(nan)},
      {Value::Int64(-1), Value::Int64(5)}};
  for (const auto& [lo, hi] : ranges) {
    for (const char* col : {"a", "d"}) {
      ExpectMatchesScalar(Between(Col(col), lo, hi), table);
      ExpectMatchesScalar(Not(Between(Col(col), lo, hi)), table);
    }
  }
  // On a NaN row every comparison but <> is false.
  EXPECT_FALSE(Eq(Col("d"), LitDouble(5.0))->EvaluateBool(table, 0));
  EXPECT_TRUE(Ne(Col("d"), LitDouble(5.0))->EvaluateBool(table, 0));
  EXPECT_FALSE(Le(Col("d"), LitDouble(5.0))->EvaluateBool(table, 0));
  EXPECT_FALSE(Ge(Col("d"), LitDouble(5.0))->EvaluateBool(table, 0));
  EXPECT_FALSE(Between(Col("d"), Value::Double(0.0), Value::Double(1.0))
                   ->EvaluateBool(table, 0));
  EXPECT_EQ(BatchCountSatisfying(*Ne(Col("d"), Col("d")), table), 2u);
  // -0.0 equals 0.0; ±inf order below and above every finite value.
  EXPECT_EQ(BatchCountSatisfying(*Eq(Col("d"), LitDouble(0.0)), table), 2u);
  EXPECT_EQ(BatchCountSatisfying(*Lt(Col("d"), LitDouble(-1e308)), table),
            1u);
  EXPECT_EQ(BatchCountSatisfying(*Gt(Col("d"), LitDouble(1e308)), table), 1u);
}

TEST_F(BatchEvalTest, BooleanConnectives) {
  const ExprPtr p = Lt(Col("a"), LitInt(0));
  const ExprPtr q = Gt(Col("b"), LitDouble(0.0));
  const ExprPtr r = StringContains(Col("s"), "a");
  ExpectMatchesScalar(And({p, q}), table_);
  ExpectMatchesScalar(Or({p, q, r}), table_);
  ExpectMatchesScalar(Not(p), table_);
  ExpectMatchesScalar(Not(And({p, Not(Or({q, r}))})), table_);
  ExpectMatchesScalar(And({}), table_);  // TRUE
  ExpectMatchesScalar(Or({}), table_);   // FALSE
}

TEST_F(BatchEvalTest, StringContainsKernel) {
  ExpectMatchesScalar(StringContains(Col("s"), "beta"), table_);
  ExpectMatchesScalar(StringContains(Col("s"), ""), table_);  // always true
  ExpectMatchesScalar(StringContains(Col("s"), "nope-never"), table_);
  ExpectMatchesScalar(StringContains(Col("s"), "a b"), table_);
}

TEST_F(BatchEvalTest, FallbackPathsMatchScalar) {
  // Arithmetic and column-vs-column comparisons have no kernel; they run
  // through the per-row fallback inside the same bitmap machinery.
  ExpectMatchesScalar(
      Lt(expr::Arith(expr::ArithOp::kAdd, Col("a"), LitInt(3)), LitInt(0)),
      table_);
  ExpectMatchesScalar(Gt(Col("a"), Col("d")), table_);
  ExpectMatchesScalar(
      And({Lt(Col("b"),
              expr::Arith(expr::ArithOp::kMul, Col("a"), LitDouble(0.1))),
           Ne(Col("s"), LitString(""))}),
      table_);
}

TEST_F(BatchEvalTest, EmptyTable) {
  Table empty("e", Schema({{"a", DataType::kInt64}}));
  std::vector<uint8_t> mask = {1, 2, 3};  // must be resized to zero
  EXPECT_EQ(BatchEvaluateMask(*Lt(Col("a"), LitInt(0)), empty, &mask), 0u);
  EXPECT_TRUE(mask.empty());
}

TEST_F(BatchEvalTest, RandomizedPredicateProperty) {
  // Fuzz: random shallow predicate trees over random tables must always
  // agree with the scalar interpreter.
  Rng rng(99);
  const std::vector<std::string> needles = {"a", "beta", "z", ""};
  auto random_leaf = [&]() -> ExprPtr {
    switch (rng.NextBounded(5)) {
      case 0:
        return Compare(static_cast<CompareOp>(rng.NextBounded(6)), Col("a"),
                       LitInt(rng.NextInRange(-20, 20)));
      case 1:
        return Compare(static_cast<CompareOp>(rng.NextBounded(6)), Col("b"),
                       LitDouble(rng.NextDoubleInRange(-2.0, 2.0)));
      case 2:
        return Between(Col("d"), Value::Date(rng.NextInRange(0, 25)),
                       Value::Date(rng.NextInRange(25, 50)));
      case 3:
        return StringContains(Col("s"), needles[rng.NextBounded(4)]);
      default:
        return Compare(static_cast<CompareOp>(rng.NextBounded(6)),
                       LitInt(rng.NextInRange(-20, 20)), Col("a"));
    }
  };
  for (int trial = 0; trial < 50; ++trial) {
    Table table = MakeRandomTable(1000 + trial, 64 + rng.NextBounded(64));
    std::vector<ExprPtr> leaves;
    const size_t n = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < n; ++i) leaves.push_back(random_leaf());
    ExprPtr pred;
    switch (rng.NextBounded(3)) {
      case 0:
        pred = And(leaves);
        break;
      case 1:
        pred = Or(leaves);
        break;
      default:
        pred = Not(And(leaves));
        break;
    }
    ExpectMatchesScalar(pred, table);
  }
}

}  // namespace
}  // namespace perf
}  // namespace robustqo
