// The executor workspace (exec/workspace.h) over TPC-H-lite at sf 0.01:
//   - after one run of each of the eight read templates' plans, a second
//     run of each through the same workspace obtains no new bytes;
//   - one workspace driven through interleaved plans (every workspace user:
//     scans, the three joins, index intersection, the star semijoin,
//     grouping, sort and limit), snapshots, row-limit trips and an armed
//     exec.operator.alloc fault gives the tables, status, rows_charged,
//     peak memory and meter charges of fresh-workspace runs, and stays
//     usable after every failed run.

#include "exec/workspace.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/agg_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_op.h"
#include "exec/star_ops.h"
#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "fault/governor.h"
#include "storage/date.h"
#include "tpch/tpch_gen.h"
#include "util/string_util.h"

namespace robustqo {
namespace exec {
namespace {

using expr::Col;
using storage::DataType;
using storage::DateToDays;
using storage::Rid;
using storage::Table;
using storage::Value;

// Identical schemas and cells; doubles compare by bits.
void ExpectIdenticalTables(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.schema().num_columns(); ++c) {
    const storage::ColumnDef& def = want.schema().column(c);
    EXPECT_EQ(got.schema().column(c).name, def.name);
    ASSERT_EQ(got.schema().column(c).type, def.type);
    for (Rid r = 0; r < want.num_rows(); ++r) {
      switch (def.type) {
        case DataType::kInt64:
        case DataType::kDate:
          ASSERT_EQ(got.column(c).Int64At(r), want.column(c).Int64At(r))
              << "row " << r << " column " << c;
          break;
        case DataType::kDouble:
          ASSERT_EQ(std::bit_cast<uint64_t>(got.column(c).DoubleAt(r)),
                    std::bit_cast<uint64_t>(want.column(c).DoubleAt(r)))
              << "row " << r << " column " << c;
          break;
        case DataType::kString:
          ASSERT_EQ(got.column(c).StringAt(r), want.column(c).StringAt(r))
              << "row " << r << " column " << c;
          break;
      }
    }
  }
}

// What one run shows to its caller.
struct Outcome {
  Result<Table> table = Status::Internal("not run");
  uint64_t rows_charged = 0;
  uint64_t peak_memory = 0;
  double simulated_seconds = 0.0;
};

void ExpectSameOutcome(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.table.ok(), want.table.ok());
  if (want.table.ok()) {
    ExpectIdenticalTables(got.table.value(), want.table.value());
  } else {
    EXPECT_EQ(got.table.status().ToString(), want.table.status().ToString());
  }
  EXPECT_EQ(got.rows_charged, want.rows_charged);
  EXPECT_EQ(got.peak_memory, want.peak_memory);
  EXPECT_EQ(got.simulated_seconds, want.simulated_seconds);
}

class WorkspaceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new core::Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.01;
    ASSERT_TRUE(tpch::LoadTpch(db_->catalog(), config).ok());
    db_->UpdateStatistics();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  // The robust optimizer's plan for each read template.
  static std::vector<opt::PlannedQuery> TemplatePlans() {
    std::vector<opt::PlannedQuery> plans;
    for (const tpch::ReadTemplate& t : tpch::kReadTemplates) {
      Result<opt::QuerySpec> spec = db_->ParseSql(t.sql);
      EXPECT_TRUE(spec.ok()) << t.name << ": " << spec.status().ToString();
      Result<opt::PlannedQuery> plan =
          db_->Plan(spec.value(), core::EstimatorKind::kRobustSample);
      EXPECT_TRUE(plan.ok()) << t.name << ": " << plan.status().ToString();
      plans.push_back(std::move(plan).value());
    }
    return plans;
  }

  // Runs `plan` under a governor with `limits`, with the operator-alloc
  // site armed to fire on its `alloc_fault_nth` probe (0 = unarmed),
  // through `workspace` (null: the context's own fresh one).
  static Outcome RunOnce(const PhysicalOperator& plan, uint64_t snapshot,
                         const fault::GovernorLimits& limits,
                         uint64_t alloc_fault_nth, Workspace* workspace) {
    fault::QueryGovernor governor(limits);
    fault::FaultInjector injector(7);
    if (alloc_fault_nth > 0) {
      fault::FaultSpec spec = fault::FaultSpec::OnNth(alloc_fault_nth);
      spec.code = StatusCode::kResourceExhausted;
      injector.Arm(fault::sites::kOperatorAlloc, spec);
    }
    ExecContext ctx;
    ctx.catalog = db_->catalog();
    ctx.snapshot_epoch = snapshot;
    ctx.governor = &governor;
    ctx.fault = &injector;
    if (workspace != nullptr) ctx.set_workspace(workspace);
    Outcome out;
    out.table = plan.Run(&ctx);
    out.rows_charged = governor.rows_charged();
    out.peak_memory = governor.peak_memory_bytes();
    out.simulated_seconds = ctx.meter.total_seconds();
    return out;
  }

  static core::Database* db_;
};

core::Database* WorkspaceTest::db_ = nullptr;

TEST_F(WorkspaceTest, WarmTemplateRunsObtainNoBytes) {
  const std::vector<opt::PlannedQuery> plans = TemplatePlans();
  ASSERT_EQ(plans.size(), 8u);
  Workspace workspace;
  std::vector<Table> first;
  for (const opt::PlannedQuery& plan : plans) {
    ExecContext ctx;
    ctx.catalog = db_->catalog();
    ctx.set_workspace(&workspace);
    Result<core::ExecutionResult> run = core::RunPlan(plan, &ctx);
    ASSERT_TRUE(run.ok()) << plan.label << ": " << run.status().ToString();
    first.push_back(std::move(run.value().rows));
  }
  const uint64_t cold = workspace.bytes_obtained();
  EXPECT_GT(cold, 0u);
  // Every template again, in reverse order: no buffer grows.
  for (size_t i = plans.size(); i-- > 0;) {
    SCOPED_TRACE(tpch::kReadTemplates[i].name);
    ExecContext ctx;
    ctx.catalog = db_->catalog();
    ctx.set_workspace(&workspace);
    Result<core::ExecutionResult> run = core::RunPlan(plans[i], &ctx);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(workspace.bytes_obtained(), cold);
    ExpectIdenticalTables(run.value().rows, first[i]);
  }
}

TEST_F(WorkspaceTest, EachTemplateRunsWarmOnItsOwn) {
  for (const opt::PlannedQuery& plan : TemplatePlans()) {
    SCOPED_TRACE(plan.label);
    Workspace workspace;
    uint64_t obtained[2] = {0, 0};
    for (uint64_t& bytes : obtained) {
      ExecContext ctx;
      ctx.catalog = db_->catalog();
      ctx.set_workspace(&workspace);
      ASSERT_TRUE(core::RunPlan(plan, &ctx).ok());
      bytes = workspace.bytes_obtained();
    }
    EXPECT_EQ(obtained[1], obtained[0]);
  }
}

// A database of its own: it takes writes, so its tables are versioned and
// its snapshots differ.
class WorkspaceEquivalenceTest : public WorkspaceTest {
 protected:
  static void SetUpTestSuite() {
    WorkspaceTest::SetUpTestSuite();
    snapshots_.push_back(db_->catalog()->data_epoch());
    for (const char* write :
         {"UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE "
          "o_orderkey < 2000",
          "DELETE FROM lineitem WHERE l_orderkey < 600",
          "UPDATE lineitem SET l_discount = l_discount + 0.01 WHERE "
          "l_orderkey > 59000"}) {
      Result<core::StatementResult> result = db_->ExecuteStatement(write);
      ASSERT_TRUE(result.ok()) << write << ": " << result.status().ToString();
      snapshots_.push_back(db_->catalog()->data_epoch());
    }
    snapshots_.push_back(storage::kLatestSnapshot);
  }

  // Operator trees reaching every workspace user the templates' plans may
  // not: merge join (with the unsorted-input fallback once orders is
  // written), index nested loops, index range scan and intersection, the
  // star semijoin, a two-key hash grouping, and sort plus limit.
  static std::vector<OperatorPtr> HandBuiltPlans() {
    const int64_t d1995 = DateToDays(1995, 1, 1);
    std::vector<OperatorPtr> plans;
    plans.push_back(std::make_unique<ScalarAggregateOp>(
        std::make_unique<MergeJoinOp>(
            std::make_unique<SeqScanOp>(
                "orders", expr::Lt(Col("o_orderdate"), expr::LitDate(d1995)),
                std::vector<std::string>{"o_orderkey", "o_totalprice"}),
            std::make_unique<SeqScanOp>(
                "lineitem", expr::Lt(Col("l_quantity"), expr::LitInt(20)),
                std::vector<std::string>{"l_orderkey", "l_extendedprice"}),
            "o_orderkey", "l_orderkey"),
        std::vector<AggSpec>{{AggKind::kCount, "", "n"},
                             {AggKind::kSum, "o_totalprice", "total"},
                             {AggKind::kSum, "l_extendedprice", "price"}}));
    plans.push_back(std::make_unique<LimitOp>(
        std::make_unique<SortOp>(
            std::make_unique<IndexNestedLoopJoinOp>(
                std::make_unique<SeqScanOp>(
                    "supplier",
                    expr::Lt(Col("s_acctbal"), expr::LitDouble(0.0))),
                "s_suppkey", "lineitem", "l_suppkey",
                expr::Gt(Col("l_discount"), expr::LitDouble(0.05)),
                std::vector<std::string>{"s_suppkey", "l_orderkey",
                                         "l_extendedprice"}),
            "l_extendedprice"),
        40));
    plans.push_back(std::make_unique<IndexIntersectionOp>(
        "lineitem",
        std::vector<IndexRange>{
            {"l_shipdate", static_cast<double>(DateToDays(1996, 1, 1)),
             static_cast<double>(DateToDays(1996, 6, 30))},
            {"l_receiptdate", static_cast<double>(DateToDays(1996, 2, 1)),
             static_cast<double>(DateToDays(1996, 7, 31))},
            {"l_partkey", std::nullopt, 1500.0}},
        expr::Lt(Col("l_quantity"), expr::LitInt(30)),
        std::vector<std::string>{"l_orderkey", "l_shipdate"}));
    plans.push_back(std::make_unique<SortOp>(
        std::make_unique<IndexRangeScanOp>(
            "lineitem",
            IndexRange{"l_orderkey", 1000.0, 9000.0},
            expr::Gt(Col("l_discount"), expr::LitDouble(0.04)),
            std::vector<std::string>{"l_orderkey", "l_discount"}),
        "l_discount"));
    std::vector<DimSemiJoin> dims;
    dims.push_back({"part", expr::Lt(Col("p_size"), expr::LitInt(20)),
                    "p_partkey", "l_partkey"});
    dims.push_back({"supplier", expr::Gt(Col("s_acctbal"), expr::LitInt(0)),
                    "s_suppkey", "l_suppkey"});
    dims.push_back({"orders",
                    expr::Lt(Col("o_orderdate"), expr::LitDate(d1995)),
                    "o_orderkey", "l_orderkey"});
    plans.push_back(std::make_unique<GroupByAggregateOp>(
        std::make_unique<StarSemiJoinOp>(
            "lineitem", std::move(dims),
            expr::Lt(Col("l_quantity"), expr::LitInt(40))),
        std::vector<std::string>{"l_suppkey", "l_linenumber"},
        std::vector<AggSpec>{{AggKind::kCount, "", "n"},
                             {AggKind::kMax, "l_extendedprice", "top"}}));
    return plans;
  }

  static std::vector<uint64_t> snapshots_;
};

std::vector<uint64_t> WorkspaceEquivalenceTest::snapshots_;

TEST_F(WorkspaceEquivalenceTest, SharedWorkspaceMatchesFreshOnes) {
  std::vector<const PhysicalOperator*> plans;
  const std::vector<opt::PlannedQuery> planned = TemplatePlans();
  for (const opt::PlannedQuery& plan : planned) {
    plans.push_back(plan.root.get());
  }
  const std::vector<OperatorPtr> built = HandBuiltPlans();
  for (const OperatorPtr& plan : built) plans.push_back(plan.get());

  Workspace shared;
  size_t trips = 0;
  size_t faults = 0;
  // Snapshots outermost, so the same plan meets the shared workspace after
  // every other plan and after the failed runs of the previous snapshot.
  for (uint64_t snapshot : snapshots_) {
    for (size_t p = 0; p < plans.size(); ++p) {
      SCOPED_TRACE(StrPrintf("snapshot %llu plan %zu",
                             static_cast<unsigned long long>(snapshot), p));
      const PhysicalOperator& plan = *plans[p];
      const Outcome fresh = RunOnce(plan, snapshot, {}, 0, nullptr);
      ASSERT_TRUE(fresh.table.ok()) << fresh.table.status().ToString();
      ExpectSameOutcome(RunOnce(plan, snapshot, {}, 0, &shared), fresh);

      // A row limit inside the run trips at the same row.
      if (fresh.rows_charged > 1) {
        fault::GovernorLimits limits;
        limits.row_limit =
            1 + (fresh.rows_charged - 1) * (p + 1) / (plans.size() + 1);
        const Outcome tripped = RunOnce(plan, snapshot, limits, 0, nullptr);
        ASSERT_FALSE(tripped.table.ok());
        EXPECT_EQ(tripped.rows_charged, limits.row_limit + 1);
        ExpectSameOutcome(RunOnce(plan, snapshot, limits, 0, &shared),
                          tripped);
        ++trips;
      }

      // An operator-alloc fault at the plan's second operator.
      const Outcome faulted = RunOnce(plan, snapshot, {}, 2, nullptr);
      ExpectSameOutcome(RunOnce(plan, snapshot, {}, 2, &shared), faulted);
      if (!faulted.table.ok()) ++faults;

      // Still usable after the failures.
      ExpectSameOutcome(RunOnce(plan, snapshot, {}, 0, &shared), fresh);
    }
  }
  EXPECT_GT(trips, 0u);
  EXPECT_GT(faults, 0u);
}

}  // namespace
}  // namespace exec
}  // namespace robustqo
