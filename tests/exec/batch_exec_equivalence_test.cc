// Property sweep: the column-at-a-time executor must return exactly the rows
// of a scalar `VisibleAt && EvaluateBool` loop, in RID order, for seeded
// random predicates over a versioned table at several snapshots. The
// predicates mix subtrees the batch kernels specialise (column vs literal,
// BETWEEN, string contains) with subtrees that fall back to per-row
// evaluation (arithmetic, column vs column) under AND/OR/NOT. Grouped
// aggregation over the same selections, and over tables whose single key
// falls on either side of the group-by's span rule, must emit ascending key
// order, keep date keys dates, produce sums bit-identical to a sequential
// per-group reference, and charge the governor the same rows and bytes.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/agg_ops.h"
#include "exec/dml.h"
#include "exec/scan_ops.h"
#include "expr/expression.h"
#include "fault/governor.h"
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
  static std::vector<Rid> ScalarSelect(const Table& table,
                                       const expr::Expr& pred,
                                       uint64_t snapshot) {
    std::vector<Rid> rids;
    for (Rid rid = 0; rid < table.num_rows(); ++rid) {
      if (table.VisibleAt(rid, snapshot) && pred.EvaluateBool(table, rid)) {
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
      const std::vector<Rid> expected =
          ScalarSelect(*table_, *pred, snapshot);
      ctx_.snapshot_epoch = snapshot;

      Result<Table> scanned = SeqScanOp("vt", pred).Run(&ctx_);
      ASSERT_TRUE(scanned.ok());
      ExpectRows(scanned.value(), expected);

      // The same selection through a doubly negated predicate: the mask
      // folds NOT twice and must still match the scalar rows.
      Result<Table> filtered =
          SeqScanOp("vt", expr::Not(expr::Not(pred))).Run(&ctx_);
      ASSERT_TRUE(filtered.ok());
      ExpectRows(filtered.value(), expected);
    }
  }
}

// Group keys for a table of `n` rows shaped to one side of the group-by's
// span rule (a single key takes the slot-array path when max - min + 1 <= n
// over the rows it groups, else the hash path).
enum class KeyShape {
  kSpanNMinus1,  // direct
  kSpanN,        // direct, at the boundary
  kSpanNPlus1,   // hash, just past it
  kSparse,       // hash
  kNegative,     // direct, all keys below zero
  kExtremes,     // hash: INT64_MIN and INT64_MAX, a span that overflows
  kDate,         // direct, a DATE key
  kEmpty,        // no rows at all
};

constexpr KeyShape kKeyShapes[] = {
    KeyShape::kSpanNMinus1, KeyShape::kSpanN,    KeyShape::kSpanNPlus1,
    KeyShape::kSparse,      KeyShape::kNegative, KeyShape::kExtremes,
    KeyShape::kDate,        KeyShape::kEmpty};

// `n` keys of `shape`, in random row order, with both ends of the span
// present.
std::vector<int64_t> ShapedKeys(KeyShape shape, int64_t n, Rng* rng) {
  if (shape == KeyShape::kEmpty) return {};
  int64_t lo = 0;
  int64_t span = n;
  switch (shape) {
    case KeyShape::kSpanNMinus1:
      span = n - 1;
      break;
    case KeyShape::kSpanN:
    case KeyShape::kDate:
      break;
    case KeyShape::kSpanNPlus1:
      span = n + 1;
      break;
    case KeyShape::kNegative:
      lo = -1000 - n;
      span = n / 2;
      break;
    case KeyShape::kSparse:
    case KeyShape::kExtremes:
    case KeyShape::kEmpty:
      break;
  }
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < n; ++i) {
    if (shape == KeyShape::kSparse) {
      keys.push_back(rng->NextInRange(-1000000000000, 1000000000000));
    } else if (shape == KeyShape::kExtremes) {
      keys.push_back(i % 3 == 0   ? std::numeric_limits<int64_t>::min()
                     : i % 3 == 1 ? std::numeric_limits<int64_t>::max()
                                  : rng->NextInRange(-5, 5));
    } else if (i < 2) {
      keys.push_back(lo + (i == 0 ? 0 : span - 1));
    } else {
      keys.push_back(lo + rng->NextInRange(0, span - 1));
    }
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng->NextBounded(i)]);
  }
  return keys;
}

TEST_P(BatchExecEquivalence, GroupByMatchesSequentialPerGroupReference) {
  Rng rng(GetParam() * 104729 + 3);
  const std::vector<AggSpec> aggs = {{AggKind::kCount, "", "n"},
                                     {AggKind::kSum, "x", "sum_x"},
                                     {AggKind::kAvg, "x", "avg_x"},
                                     {AggKind::kMin, "a", "min_a"},
                                     {AggKind::kMax, "d", "max_d"}};
  // Single keys whose span over the selected rows falls on either side of
  // the rule, tallied from the reference.
  size_t within_span = 0;
  size_t beyond_span = 0;

  // Runs the group-by over SeqScan(table, pred) at `snapshot` and checks it
  // against a sequential per-group fold of the scalar selection: ascending
  // key order, key types kept, SUM/AVG byte-equal, and the governor charged
  // exactly the scan's rows and bytes, one output row and one workspace
  // entry per group. With two or more groups it runs again under a memory
  // budget that the workspace of the middle group must trip.
  const auto check = [&](const std::string& name, const ExprPtr& pred,
                         const std::vector<std::string>& keys,
                         uint64_t snapshot) {
    const Table& table = *catalog_.GetTable(name);
    SCOPED_TRACE(name + " by " + keys[0] + (keys.size() > 1 ? ",..." : "") +
                 " where " + (pred ? pred->ToString() : "true") +
                 " @ snapshot " + std::to_string(snapshot));
    struct Ref {
      uint64_t n = 0;
      double sum_x = 0.0;
      double min_a = 0.0;
      double max_d = 0.0;
    };
    std::map<std::vector<int64_t>, Ref> ref;
    const std::vector<Rid> selected =
        pred ? ScalarSelect(table, *pred, snapshot)
             : ScalarSelect(table, *expr::And({}), snapshot);
    for (Rid rid : selected) {
      std::vector<int64_t> key;
      for (const std::string& k : keys) {
        key.push_back(table.column(k).Int64At(rid));
      }
      Ref& r = ref[key];
      const double a = table.column("a").ValueAt(rid).NumericValue();
      const double d = table.column("d").ValueAt(rid).NumericValue();
      r.min_a = r.n == 0 ? a : std::min(r.min_a, a);
      r.max_d = r.n == 0 ? d : std::max(r.max_d, d);
      r.sum_x += table.column("x").DoubleAt(rid);
      ++r.n;
    }
    if (keys.size() == 1 && !ref.empty()) {
      const uint64_t span_minus_one =
          static_cast<uint64_t>(ref.rbegin()->first[0]) -
          static_cast<uint64_t>(ref.begin()->first[0]);
      ++(span_minus_one < selected.size() ? within_span : beyond_span);
    }

    ctx_.snapshot_epoch = snapshot;
    const auto group_by = [&] {
      return GroupByAggregateOp(std::make_unique<SeqScanOp>(name, pred), keys,
                                aggs);
    };
    fault::QueryGovernor governor;
    ctx_.governor = &governor;
    Result<Table> out = group_by().Run(&ctx_);
    ctx_.governor = nullptr;
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const Table& t = out.value();
    ASSERT_EQ(t.num_rows(), ref.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      EXPECT_EQ(t.schema().column(k).type, table.column(keys[k]).type());
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
    const uint64_t scan_bytes =
        selected.size() * table.schema().num_columns() * 8;
    const uint64_t group_bytes = (keys.size() + aggs.size() * 4 + 4) * 8;
    const uint64_t out_bytes = (keys.size() + aggs.size()) * 8;
    EXPECT_EQ(governor.rows_charged(), selected.size() + ref.size());
    EXPECT_EQ(governor.peak_memory_bytes(),
              scan_bytes + ref.size() * (group_bytes + out_bytes));

    if (ref.size() < 2) return;
    const uint64_t trip_group = ref.size() / 2;  // 0-based, first seen
    fault::GovernorLimits limits;
    limits.memory_limit_bytes = scan_bytes + trip_group * group_bytes;
    fault::QueryGovernor tight(limits);
    ctx_.governor = &tight;
    Result<Table> tripped = group_by().Run(&ctx_);
    ctx_.governor = nullptr;
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(tight.memory_trips(), 1u);
    EXPECT_EQ(tight.peak_memory_bytes(),
              scan_bytes + (trip_group + 1) * group_bytes);
  };

  // The versioned table at every snapshot, under random predicates.
  const std::vector<std::vector<std::string>> key_sets = {
      {"g"}, {"a"}, {"d"}, {"id"}, {"g", "d"}, {"d", "a", "g"}};
  for (int trial = 0; trial < 10; ++trial) {
    const ExprPtr pred = RandomPredicate(&rng, 2);
    for (const auto& keys : key_sets) {
      for (uint64_t snapshot : kSnapshots) {
        check("vt", pred, keys, snapshot);
      }
    }
  }

  // Unversioned tables keyed to each side of the span rule: whole (the
  // scan passes no RID list), and under a predicate (it does).
  for (KeyShape shape : kKeyShapes) {
    const int64_t n = 48 + static_cast<int64_t>(rng.NextBounded(32));
    const std::string name = "k" + std::to_string(static_cast<int>(shape));
    const DataType key_type =
        shape == KeyShape::kDate ? DataType::kDate : DataType::kInt64;
    std::vector<storage::ColumnDef> defs = table_->schema().columns();
    defs.push_back({"k", key_type});
    auto table = std::make_unique<Table>(name, Schema(std::move(defs)));
    const std::vector<int64_t> keys = ShapedKeys(shape, n, &rng);
    for (size_t i = 0; i < keys.size(); ++i) {
      std::vector<Value> row = RandomRow(&rng, static_cast<int64_t>(i));
      row.push_back(key_type == DataType::kDate ? Value::Date(keys[i])
                                                : Value::Int64(keys[i]));
      table->AppendRow(row);
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(table)).ok());
    check(name, nullptr, {"k"}, storage::kLatestSnapshot);
    check(name, nullptr, {"k", "g"}, storage::kLatestSnapshot);
    for (int trial = 0; trial < 3; ++trial) {
      check(name, RandomPredicate(&rng, 1), {"k"}, storage::kLatestSnapshot);
    }
  }
  EXPECT_GT(within_span, 0u);
  EXPECT_GT(beyond_span, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExecEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace exec
}  // namespace robustqo
