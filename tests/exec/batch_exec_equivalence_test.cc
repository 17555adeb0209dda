// Property sweep: the column-at-a-time executor must return exactly the rows
// of a scalar `VisibleAt && EvaluateBool` loop, in RID order, for seeded
// random predicates over a versioned table at several snapshots. The
// predicates mix subtrees the batch kernels specialise (column vs literal,
// BETWEEN, string contains) with subtrees that fall back to per-row
// evaluation (arithmetic, column vs column) under AND/OR/NOT. Grouped
// aggregation over the same selections must emit ascending key order, keep
// date keys dates, and produce sums bit-identical to a sequential per-group
// reference.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/agg_ops.h"
#include "exec/dml.h"
#include "exec/scan_ops.h"
#include "expr/expression.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace robustqo {
namespace exec {
namespace {

using expr::ExprPtr;
using storage::DataType;
using storage::Rid;
using storage::Schema;
using storage::Table;
using storage::Value;

const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "alpha", "beta", "gamma", "delta", "", "beta2", "ALPHA", "betamax"};
  return words;
}

expr::CompareOp RandomOp(Rng* rng) {
  return static_cast<expr::CompareOp>(rng->NextBounded(6));
}

// A random predicate over vt(id, a INT64, x DOUBLE, s STRING, d DATE,
// g INT64). Every comparison is between comparable types.
ExprPtr RandomPredicate(Rng* rng, int depth) {
  const uint64_t pick = rng->NextBounded(depth > 0 ? 13 : 9);
  switch (pick) {
    case 0:  // int column vs int literal (kernel)
      return expr::Compare(RandomOp(rng), expr::Col("a"),
                           expr::LitInt(rng->NextInRange(-22, 22)));
    case 1:  // double column vs int literal, literal on the left (kernel)
      return expr::Compare(RandomOp(rng),
                           expr::LitInt(rng->NextInRange(-2, 2)),
                           expr::Col("x"));
    case 2:  // date column vs date literal (kernel)
      return expr::Compare(RandomOp(rng), expr::Col("d"),
                           expr::LitDate(rng->NextInRange(0, 50)));
    case 3:  // int column vs double literal (kernel, widened)
      return expr::Compare(RandomOp(rng), expr::Col("a"),
                           expr::LitDouble(rng->NextDoubleInRange(-20, 20)));
    case 4:  // string column vs string literal (kernel)
      return expr::Compare(
          RandomOp(rng), expr::Col("s"),
          expr::LitString(Words()[rng->NextBounded(Words().size())]));
    case 5: {  // BETWEEN (kernel)
      const int64_t lo = rng->NextInRange(-20, 15);
      return expr::Between(expr::Col("a"), Value::Int64(lo),
                           Value::Int64(lo + rng->NextInRange(0, 10)));
    }
    case 6:  // string contains (kernel)
      return expr::StringContains(expr::Col("s"),
                                  rng->NextBounded(2) == 0 ? "eta" : "a");
    case 7:  // column vs column (fallback)
      return expr::Compare(RandomOp(rng), expr::Col("a"), expr::Col("g"));
    case 8:  // arithmetic (fallback)
      return expr::Compare(
          RandomOp(rng),
          expr::Arith(expr::ArithOp::kAdd, expr::Col("a"), expr::Col("x")),
          expr::LitDouble(rng->NextDoubleInRange(-10, 10)));
    case 9:
      return expr::Not(RandomPredicate(rng, depth - 1));
    case 10:
      return expr::Or({RandomPredicate(rng, depth - 1),
                       RandomPredicate(rng, depth - 1)});
    default:
      return expr::And({RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1),
                        RandomPredicate(rng, depth - 1)});
  }
}

class BatchExecEquivalence : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    auto table = std::make_unique<Table>(
        "vt", Schema({{"id", DataType::kInt64},
                      {"a", DataType::kInt64},
                      {"x", DataType::kDouble},
                      {"s", DataType::kString},
                      {"d", DataType::kDate},
                      {"g", DataType::kInt64}}));
    for (int64_t i = 0; i < 400; ++i) {
      table->AppendRow(RandomRow(&rng, i));
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(table)).ok());
    ctx_.catalog = &catalog_;

    // Versions: each write commits at the next data epoch.
    DmlExecutor dml(&catalog_);
    ASSERT_TRUE(dml.Update(&ctx_, "vt",
                           {{"a", expr::Arith(expr::ArithOp::kAdd,
                                              expr::Col("a"),
                                              expr::LitInt(3))}},
                           expr::Lt(expr::Col("a"), expr::LitInt(0)))
                    .ok());
    ASSERT_TRUE(
        dml.Delete(&ctx_, "vt", expr::Gt(expr::Col("x"), expr::LitDouble(1.4)))
            .ok());
    std::vector<std::vector<Value>> inserts;
    for (int64_t i = 400; i < 450; ++i) inserts.push_back(RandomRow(&rng, i));
    ASSERT_TRUE(dml.Insert(&ctx_, "vt", inserts).ok());
    ASSERT_TRUE(dml.Update(&ctx_, "vt",
                           {{"x", expr::Arith(expr::ArithOp::kMul,
                                              expr::Col("x"),
                                              expr::LitDouble(-0.5))}},
                           expr::Lt(expr::Col("d"), expr::LitDate(12)))
                    .ok());
    table_ = catalog_.GetTable("vt");
    ASSERT_TRUE(table_->versioned());
  }

  static std::vector<Value> RandomRow(Rng* rng, int64_t id) {
    return {Value::Int64(id),
            Value::Int64(rng->NextInRange(-20, 20)),
            Value::Double(rng->NextDoubleInRange(-2.0, 2.0)),
            Value::String(Words()[rng->NextBounded(Words().size())]),
            Value::Date(rng->NextInRange(0, 50)),
            Value::Int64(rng->NextInRange(-3, 3))};
  }

  // The scalar reference selection.
  std::vector<Rid> ScalarSelect(const expr::Expr& pred,
                                uint64_t snapshot) const {
    std::vector<Rid> rids;
    for (Rid rid = 0; rid < table_->num_rows(); ++rid) {
      if (table_->VisibleAt(rid, snapshot) &&
          pred.EvaluateBool(*table_, rid)) {
        rids.push_back(rid);
      }
    }
    return rids;
  }

  void ExpectRows(const Table& out, const std::vector<Rid>& rids) const {
    ASSERT_EQ(out.num_rows(), rids.size());
    ASSERT_EQ(out.schema().num_columns(), table_->schema().num_columns());
    for (size_t i = 0; i < rids.size(); ++i) {
      ASSERT_EQ(out.RowAt(i), table_->RowAt(rids[i])) << "output row " << i;
    }
  }

  static constexpr uint64_t kSnapshots[] = {0, 1, 2, 3,
                                            storage::kLatestSnapshot};

  storage::Catalog catalog_;
  const Table* table_ = nullptr;
  ExecContext ctx_;
};

TEST_P(BatchExecEquivalence, SeqScanAndFilterMatchScalarSelection) {
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 40; ++trial) {
    const ExprPtr pred = RandomPredicate(&rng, 3);
    for (uint64_t snapshot : kSnapshots) {
      SCOPED_TRACE(pred->ToString() + " @ snapshot " +
                   std::to_string(snapshot));
      const std::vector<Rid> expected = ScalarSelect(*pred, snapshot);
      ctx_.snapshot_epoch = snapshot;

      Result<Table> scanned = SeqScanOp("vt", pred).Run(&ctx_);
      ASSERT_TRUE(scanned.ok());
      ExpectRows(scanned.value(), expected);

      FilterOp filter(std::make_unique<SeqScanOp>("vt", nullptr), pred);
      Result<Table> filtered = filter.Run(&ctx_);
      ASSERT_TRUE(filtered.ok());
      ExpectRows(filtered.value(), expected);
    }
  }
}

TEST_P(BatchExecEquivalence, GroupByMatchesSequentialPerGroupReference) {
  Rng rng(GetParam() * 104729 + 3);
  const std::vector<std::vector<std::string>> key_sets = {
      {"g"}, {"g", "d"}, {"d", "a", "g"}};
  const std::vector<AggSpec> aggs = {{AggKind::kCount, "", "n"},
                                     {AggKind::kSum, "x", "sum_x"},
                                     {AggKind::kAvg, "x", "avg_x"},
                                     {AggKind::kMin, "a", "min_a"},
                                     {AggKind::kMax, "d", "max_d"}};
  for (int trial = 0; trial < 10; ++trial) {
    const ExprPtr pred = RandomPredicate(&rng, 2);
    for (const auto& keys : key_sets) {
      for (uint64_t snapshot : kSnapshots) {
        SCOPED_TRACE(pred->ToString() + " @ snapshot " +
                     std::to_string(snapshot));
        // Sequential reference: fold rows into their group in RID order.
        struct Ref {
          uint64_t n = 0;
          double sum_x = 0.0;
          double min_a = 0.0;
          double max_d = 0.0;
        };
        std::map<std::vector<int64_t>, Ref> ref;
        for (Rid rid : ScalarSelect(*pred, snapshot)) {
          std::vector<int64_t> key;
          for (const std::string& k : keys) {
            key.push_back(table_->column(k).Int64At(rid));
          }
          Ref& r = ref[key];
          const double a = table_->ValueAt(rid, 1).NumericValue();
          const double d = table_->ValueAt(rid, 4).NumericValue();
          r.min_a = r.n == 0 ? a : std::min(r.min_a, a);
          r.max_d = r.n == 0 ? d : std::max(r.max_d, d);
          r.sum_x += table_->ValueAt(rid, 2).AsDouble();
          ++r.n;
        }

        ctx_.snapshot_epoch = snapshot;
        GroupByAggregateOp group(std::make_unique<SeqScanOp>("vt", pred), keys,
                                 aggs);
        Result<Table> out = group.Run(&ctx_);
        ASSERT_TRUE(out.ok());
        const Table& t = out.value();
        ASSERT_EQ(t.num_rows(), ref.size());
        for (size_t k = 0; k < keys.size(); ++k) {
          EXPECT_EQ(t.schema().column(k).type, table_->column(keys[k]).type());
        }
        size_t row = 0;
        for (const auto& [key, r] : ref) {  // ascending key order
          for (size_t k = 0; k < keys.size(); ++k) {
            ASSERT_EQ(t.column(k).Int64At(row), key[k]) << "row " << row;
          }
          const size_t base = keys.size();
          EXPECT_EQ(t.column(base).Int64At(row), static_cast<int64_t>(r.n));
          const double sum = t.column(base + 1).DoubleAt(row);
          const double avg = t.column(base + 2).DoubleAt(row);
          const double ref_avg = r.sum_x / static_cast<double>(r.n);
          EXPECT_EQ(std::memcmp(&sum, &r.sum_x, sizeof(double)), 0);
          EXPECT_EQ(std::memcmp(&avg, &ref_avg, sizeof(double)), 0);
          EXPECT_EQ(t.column(base + 3).DoubleAt(row), r.min_a);
          EXPECT_EQ(t.column(base + 4).DoubleAt(row), r.max_d);
          ++row;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExecEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace exec
}  // namespace robustqo
