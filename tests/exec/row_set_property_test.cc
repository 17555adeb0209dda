// Property sweep over the late-materialized executor: random join plans
// (the join-equivalence sweep's dimension/fact pair, with the fact table
// rewritten by versioned DML) run at several snapshots. For every plan:
//   - Run() returns exactly the table a boxed, cell-by-cell read of the
//     plan's RowSet gives, and the join rows a nested-loop reference finds
//     at that snapshot;
//   - under a row limit L >= 1 below the unlimited run's rows_charged, the
//     run fails with the governor's standard kResourceExhausted status and
//     charges L + 1 rows; at or above it, the result is unchanged;
//   - the same plans run concurrently on TaskPool workers over one shared
//     catalog produce the same tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/agg_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_op.h"
#include "expr/expression.h"
#include "fault/governor.h"
#include "perf/task_pool.h"
#include "util/rng.h"
#include "util/string_util.h"

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

constexpr int kPlanKinds = 9;
// Snapshots the sweep reads at: before any write, after each of the three
// write epochs, and the latest view.
const uint64_t kSnapshots[] = {0, 1, 2, 3, storage::kLatestSnapshot};

// A boxed, cell-by-cell read of `rows` through its slices: the reference
// for RowSet::Materialize's column gather.
Table BoxedGather(const RowSet& rows) {
  Table out(rows.name(), rows.schema());
  for (uint64_t i = 0; i < rows.num_rows(); ++i) {
    std::vector<Value> row;
    for (size_t c = 0; c < rows.schema().num_columns(); ++c) {
      const auto& [s, column] = rows.source(c);
      const RowSlice& slice = rows.slices()[s];
      EXPECT_TRUE(slice.rids == nullptr ||
                  slice.rids->size() == rows.num_rows());
      const Rid rid = slice.rids == nullptr ? i : (*slice.rids)[i];
      EXPECT_LT(rid, slice.table->num_rows());
      row.push_back(slice.table->ValueAt(rid, column));
    }
    out.AppendRow(row);
  }
  return out;
}

void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns());
  for (size_t c = 0; c < want.schema().num_columns(); ++c) {
    EXPECT_EQ(got.schema().column(c).name, want.schema().column(c).name);
    EXPECT_EQ(got.schema().column(c).type, want.schema().column(c).type);
  }
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (Rid r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.schema().num_columns(); ++c) {
      // Exact comparison: SUM and AVG must stay bit-identical.
      ASSERT_EQ(got.ValueAt(r, c).Compare(want.ValueAt(r, c)), 0)
          << "row " << r << " column " << c;
    }
  }
}

// The unmaterialized rows a parent operator reads from `plan`, through the
// protected hook operators use for their children.
struct ChildRows : PhysicalOperator {
  static Result<RowSet> Of(const PhysicalOperator& plan, ExecContext* ctx) {
    return RunChild(plan, ctx);
  }
};

// (seed, filter bound on dim attr 0..99, key skew: max duplicates per key)
using Param = std::tuple<uint64_t, int64_t, int64_t>;

class RowSetPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [seed, bound, skew] = GetParam();
    bound_ = bound;
    Rng rng(seed);
    auto dim = std::make_unique<Table>(
        "jdim", Schema({{"jd_id", DataType::kInt64},
                        {"jd_attr", DataType::kInt64}}));
    for (int64_t i = 1; i <= kDimRows; ++i) {
      dim->AppendRow({Value::Int64(i), Value::Int64(rng.NextInRange(0, 99))});
    }
    auto fact = std::make_unique<Table>(
        "jfact", Schema({{"jf_id", DataType::kInt64},
                         {"jf_fk", DataType::kInt64},
                         {"jf_price", DataType::kDouble}}));
    int64_t id = 0;
    for (int64_t d = 1; d <= kDimRows; ++d) {
      const int64_t copies = rng.NextInRange(0, skew);
      for (int64_t c = 0; c < copies; ++c) {
        fact->AppendRow({Value::Int64(++id), Value::Int64(d),
                         Value::Double(0.01 * rng.NextInRange(1, 99999))});
      }
    }
    // Three write epochs, each deleting some live rows and appending new
    // versions out of key order, as UPDATE does.
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      const Rid live = fact->num_rows();
      for (Rid r = 0; r < live; ++r) {
        if (rng.NextBernoulli(0.15)) fact->MarkDeleted(r, epoch);
      }
      const int64_t appended = rng.NextInRange(0, 40);
      for (int64_t a = 0; a < appended; ++a) {
        fact->AppendRowVersioned(
            {Value::Int64(++id), Value::Int64(rng.NextInRange(1, kDimRows)),
             Value::Double(0.01 * rng.NextInRange(1, 99999))},
            epoch);
      }
    }
    ASSERT_TRUE(catalog_.AddTable(std::move(dim)).ok());
    ASSERT_TRUE(catalog_.AddTable(std::move(fact)).ok());
    ASSERT_TRUE(catalog_.BuildIndex("jfact", "jf_fk").ok());
  }

  OperatorPtr DimScan() const {
    return std::make_unique<SeqScanOp>(
        "jdim", Lt(Col("jd_attr"), LitInt(bound_)),
        std::vector<std::string>{"jd_id"});
  }
  OperatorPtr FactScan() const {
    return std::make_unique<SeqScanOp>("jfact", nullptr);
  }
  OperatorPtr DimFactJoin() const {
    return std::make_unique<HashJoinOp>(
        DimScan(), FactScan(), "jd_id", "jf_fk",
        std::vector<std::string>{"jd_id", "jf_id", "jf_price"});
  }

  // Plan `kind`: the four join methods, then aggregates (one over a
  // filtered fact scan), project, sort and limit over the hash join.
  OperatorPtr MakePlan(int kind) const {
    const std::vector<std::string> out = {"jd_id", "jf_id", "jf_price"};
    switch (kind) {
      case 0:
        return DimFactJoin();
      case 1:
        return std::make_unique<HashJoinOp>(FactScan(), DimScan(), "jf_fk",
                                            "jd_id", out);
      case 2:
        return std::make_unique<MergeJoinOp>(
            std::make_unique<SortOp>(DimScan(), "jd_id"),
            std::make_unique<SortOp>(FactScan(), "jf_fk"), "jd_id", "jf_fk",
            out);
      case 3:  // unsorted versioned fact side: the join sorts it itself
        return std::make_unique<MergeJoinOp>(DimScan(), FactScan(), "jd_id",
                                             "jf_fk", out);
      case 4:
        return std::make_unique<IndexNestedLoopJoinOp>(
            DimScan(), "jd_id", "jfact", "jf_fk", nullptr, out);
      case 5:
        return std::make_unique<GroupByAggregateOp>(
            DimFactJoin(), std::vector<std::string>{"jd_id"},
            std::vector<AggSpec>{{AggKind::kCount, "", "n"},
                                 {AggKind::kSum, "jf_price", "total"},
                                 {AggKind::kAvg, "jf_price", "mean"},
                                 {AggKind::kMax, "jf_id", "top"}});
      case 6:
        return std::make_unique<ScalarAggregateOp>(
            std::make_unique<ProjectOp>(
                std::make_unique<HashJoinOp>(
                    DimScan(),
                    std::make_unique<SeqScanOp>("jfact",
                                                Lt(Col("jf_id"), LitInt(300))),
                    "jd_id", "jf_fk", out),
                std::vector<std::string>{"jf_price"}),
            std::vector<AggSpec>{{AggKind::kSum, "jf_price", "total"},
                                 {AggKind::kMin, "jf_price", "low"}});
      case 7:
        return std::make_unique<LimitOp>(
            std::make_unique<SortOp>(DimFactJoin(), "jf_price"), 17);
      default:
        return std::make_unique<ProjectOp>(
            std::make_unique<SortOp>(DimFactJoin(), "jf_id"),
            std::vector<std::string>{"jf_price", "jd_id"});
    }
  }

  ExecContext Context(uint64_t snapshot,
                      fault::QueryGovernor* governor) const {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.snapshot_epoch = snapshot;
    ctx.governor = governor;
    return ctx;
  }

  // Sorted (jd_id, jf_id) pairs of the dim/fact join at `snapshot`, by
  // nested loops over the visible rows.
  std::vector<std::pair<int64_t, int64_t>> ReferenceJoin(
      uint64_t snapshot) const {
    const Table& dim = *catalog_.GetTable("jdim");
    const Table& fact = *catalog_.GetTable("jfact");
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (Rid d = 0; d < dim.num_rows(); ++d) {
      if (dim.column("jd_attr").Int64At(d) >= bound_) continue;
      for (Rid f = 0; f < fact.num_rows(); ++f) {
        if (!fact.VisibleAt(f, snapshot)) continue;
        if (fact.column("jf_fk").Int64At(f) == dim.column("jd_id").Int64At(d)) {
          pairs.emplace_back(dim.column("jd_id").Int64At(d),
                             fact.column("jf_id").Int64At(f));
        }
      }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  }

  static std::vector<std::pair<int64_t, int64_t>> JoinPairsOf(
      const Table& out) {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (Rid r = 0; r < out.num_rows(); ++r) {
      pairs.emplace_back(out.column("jd_id").Int64At(r),
                         out.column("jf_id").Int64At(r));
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  }

  static constexpr int64_t kDimRows = 120;
  Catalog catalog_;
  int64_t bound_ = 0;
};

TEST_P(RowSetPropertyTest, RunEqualsBoxedGatherOfTheRowSet) {
  for (uint64_t snapshot : kSnapshots) {
    const auto reference = ReferenceJoin(snapshot);
    for (int kind = 0; kind < kPlanKinds; ++kind) {
      SCOPED_TRACE(StrPrintf("snapshot %llu plan %d",
                             static_cast<unsigned long long>(snapshot), kind));
      const OperatorPtr plan = MakePlan(kind);
      ExecContext run_ctx = Context(snapshot, nullptr);
      Result<Table> table = plan->Run(&run_ctx);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ExecContext rows_ctx = Context(snapshot, nullptr);
      Result<RowSet> rows = ChildRows::Of(*plan, &rows_ctx);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ExpectSameTable(table.value(), BoxedGather(rows.value()));
      EXPECT_EQ(run_ctx.meter.total_seconds(), rows_ctx.meter.total_seconds());
      if (kind <= 4) EXPECT_EQ(JoinPairsOf(table.value()), reference);
    }
  }
}

TEST_P(RowSetPropertyTest, RowLimitsTripAtLimitPlusOne) {
  Rng rng(std::get<0>(GetParam()) * 7919);
  for (uint64_t snapshot : kSnapshots) {
    for (int kind = 0; kind < kPlanKinds; ++kind) {
      SCOPED_TRACE(StrPrintf("snapshot %llu plan %d",
                             static_cast<unsigned long long>(snapshot), kind));
      const OperatorPtr plan = MakePlan(kind);
      fault::QueryGovernor unlimited;
      ExecContext ctx = Context(snapshot, &unlimited);
      const Table want = plan->Run(&ctx).value();
      const uint64_t charged = unlimited.rows_charged();
      // A row limit of 0 means unlimited: limits run from 1.
      for (int trial = 0; trial < 4 && charged > 1; ++trial) {
        fault::GovernorLimits limits;
        limits.row_limit = 1 + rng.NextBounded(charged - 1);
        fault::QueryGovernor governor(limits);
        ExecContext limited = Context(snapshot, &governor);
        Result<Table> out = plan->Run(&limited);
        ASSERT_FALSE(out.ok()) << "limit " << limits.row_limit;
        EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
        EXPECT_EQ(out.status().message(),
                  StrPrintf("query row budget exceeded: %llu rows "
                            "materialized (limit %llu)",
                            static_cast<unsigned long long>(
                                limits.row_limit + 1),
                            static_cast<unsigned long long>(
                                limits.row_limit)));
        EXPECT_EQ(governor.rows_charged(), limits.row_limit + 1);
      }
      fault::GovernorLimits roomy;
      roomy.row_limit = charged + rng.NextBounded(3);
      fault::QueryGovernor governor(roomy);
      ExecContext limited = Context(snapshot, &governor);
      Result<Table> out = plan->Run(&limited);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ExpectSameTable(out.value(), want);
      EXPECT_EQ(governor.rows_charged(), charged);
      EXPECT_EQ(governor.peak_memory_bytes(), unlimited.peak_memory_bytes());
    }
  }
}

TEST_P(RowSetPropertyTest, ConcurrentRunsOverOneCatalogAgree) {
  struct Job {
    int kind;
    uint64_t snapshot;
  };
  std::vector<Job> jobs;
  std::vector<Table> want;
  for (uint64_t snapshot : kSnapshots) {
    for (int kind = 0; kind < kPlanKinds; ++kind) {
      jobs.push_back({kind, snapshot});
      ExecContext ctx = Context(snapshot, nullptr);
      want.push_back(MakePlan(kind)->Run(&ctx).value());
    }
  }
  // Each task writes only its own slot; the catalog is shared read-only,
  // and each worker keeps one workspace across the jobs it runs.
  std::vector<std::unique_ptr<Result<Table>>> got(jobs.size());
  perf::TaskPool pool(4);
  std::vector<Workspace> workspaces(pool.threads());
  pool.ParallelForWorker(jobs.size(), [&](unsigned worker, size_t i) {
    fault::QueryGovernor governor;
    ExecContext ctx = Context(jobs[i].snapshot, &governor);
    ctx.set_workspace(&workspaces[worker]);
    got[i] = std::make_unique<Result<Table>>(MakePlan(jobs[i].kind)->Run(&ctx));
  });
  for (size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(StrPrintf("job %zu", i));
    ASSERT_TRUE(got[i]->ok()) << got[i]->status().ToString();
    ExpectSameTable(got[i]->value(), want[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RowSetPropertyTest,
    ::testing::Values(Param{1, 100, 3},   // no filter, light skew
                      Param{2, 50, 3},    // half the dims
                      Param{3, 10, 3},    // selective filter
                      Param{4, 0, 3},     // empty dim side
                      Param{5, 100, 0},   // only versioned fact rows
                      Param{6, 100, 10},  // heavy duplication
                      Param{7, 25, 1}, Param{8, 75, 6}));

}  // namespace
}  // namespace exec
}  // namespace robustqo
