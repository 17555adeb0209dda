// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Physical-operator base. Operators execute for real — they compute the
// correct relational result — while charging the cost meter for every unit
// of simulated work. Operators hand each other RowSets (exec/row_set.h):
// row-id selections over the tables the values live in, not gathered
// tables. A scan's output is its RID selection over the catalog table
// (predicates through perf::BatchEvaluateMask); a join composes its
// inputs' selections with its matched RID pairs; aggregates read their
// inputs through the selections. Values are gathered once, column at a
// time, when Run() materializes the plan's result. Output rows, their order
// and meter charges are those of a row-at-a-time loop over the same inputs.
// Governor accounting charges the modelled bytes of each output row
// (ApproximateRowBytes), not actual allocation, per run of rows
// (ExecContext::TickRows) with the observable outcome of one
// Tick(1, row_bytes) per row: a budget trips at the same row with the same
// status, and rows_charged, peak memory and checkpoint positions agree.
//
// Execution is fallible by design: Run() returns Result<Table> and
// operators cooperate with the per-query governor (memory/row/time budgets,
// cancellation) and the fault injector inside their loops, so a tripped
// budget or injected fault surfaces as a typed Status — never a crash.

#ifndef ROBUSTQO_EXEC_OPERATOR_H_
#define ROBUSTQO_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "exec/row_set.h"
#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "fault/governor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/status.h"

namespace robustqo {
namespace exec {

/// Execution environment: the database plus the cost meter that accumulates
/// this query's simulated execution time.
struct ExecContext {
  const storage::Catalog* catalog = nullptr;
  CostModel cost_model = CostModel::Default();
  CostMeter meter;
  /// Rows that entered the topmost aggregation operator (the SPJ result
  /// size), recorded by the aggregate operators; used for execution
  /// feedback. UINT64_MAX until an aggregate runs.
  uint64_t aggregate_input_rows = UINT64_MAX;
  /// Observability sinks (borrowed, nullable). When `tracer` is set, Run()
  /// emits one "exec" span per operator with its actual output rows and
  /// simulated cost — the raw material of EXPLAIN ANALYZE.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-query resource governor (borrowed, nullable = unlimited).
  /// Operators account their output rows and modelled bytes and poll
  /// cancellation and the simulated-time budget through Tick()/CheckPoint().
  fault::QueryGovernor* governor = nullptr;
  /// Fault injector (borrowed, nullable = no faults). Run() probes the
  /// operator-alloc and clock-stall sites.
  fault::FaultInjector* fault = nullptr;
  /// Snapshot (data) epoch this query reads at. Scans skip row versions
  /// not visible at it, so a request admitted before a DML commit keeps
  /// reading the pre-commit state. kLatestSnapshot (the default) sees
  /// every committed version; unversioned tables ignore it entirely.
  uint64_t snapshot_epoch = storage::kLatestSnapshot;

  /// Cooperative checkpoint: cancellation plus the simulated-time budget.
  Status CheckPoint();

  /// Accounts `rows` output rows and `bytes` modelled bytes against the
  /// governor, checkpointing every few hundred rows so a runaway loop is
  /// caught promptly without paying per-row overhead.
  Status Tick(uint64_t rows, uint64_t bytes);

  /// Accounts a run of `rows` output rows of `row_bytes` each with
  /// the outcome of Tick(1, row_bytes) per row: the same trip row, status,
  /// rows_charged, memory and peak, trip counters and checkpoint position.
  /// The rows that fit the budgets are charged in one step, with at most
  /// one CheckPoint (neither the meter nor the cancellation token changes
  /// inside a run); only the row that trips goes through Tick.
  Status TickRows(uint64_t rows, uint64_t row_bytes);

 private:
  uint64_t rows_since_checkpoint_ = 0;
};

/// Base class for physical operators.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Runs the operator (and its subtree) and gathers its rows into one
  /// table, charging `ctx->meter`. Fails with a typed Status on malformed
  /// plans (kNotFound/kInvalidArgument), governor trips
  /// (kResourceExhausted/kCancelled) or injected faults.
  Result<storage::Table> Run(ExecContext* ctx) const;

  /// One-line description ("HashJoin(l_orderkey = o_orderkey)").
  virtual std::string Describe() const = 0;

  /// Child operators, for plan printing.
  virtual std::vector<const PhysicalOperator*> children() const { return {}; }

  /// Multi-line indented plan tree.
  std::string TreeString(int indent = 0) const;

  /// Planner annotation: the optimizer's estimated output rows for this
  /// operator, set once after plan construction (-1 = not annotated).
  /// EXPLAIN ANALYZE compares it against the traced actual rows.
  double planner_estimated_rows() const { return planner_estimated_rows_; }
  void set_planner_estimated_rows(double rows) {
    planner_estimated_rows_ = rows;
  }

 protected:
  /// The operator's own work: its output rows, as a RowSet.
  virtual Result<RowSet> Execute(ExecContext* ctx) const = 0;

  /// Runs `child`'s subtree for its parent, unmaterialized. Every
  /// operator-to-child call goes through it; the RowSet borrows catalog
  /// tables, so it stays inside the operator tree and Run() is the only
  /// public way out.
  static Result<RowSet> RunChild(const PhysicalOperator& child,
                                 ExecContext* ctx) {
    return child.RunRows(ctx);
  }

 private:
  /// Instrumented entry point: Execute() wrapped in an "exec" trace span
  /// recording actual output rows and the simulated cost charged by the
  /// subtree, so the span tree mirrors the plan tree; with no sink attached
  /// this is exactly Execute() plus the fault-site probes.
  Result<RowSet> RunRows(ExecContext* ctx) const;

  double planner_estimated_rows_ = -1.0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

// ---- Shared helpers for operator implementations ----

/// Approximate in-memory bytes of one row of `schema` (8 bytes per cell,
/// matching the statistics catalog's summary-size approximation).
uint64_t ApproximateRowBytes(const storage::Schema& schema);

/// Schema containing the named columns of `schema` in the given order.
Result<storage::Schema> ProjectSchema(const storage::Schema& schema,
                                      const std::vector<std::string>& columns);

/// Rows of `table` visible at `snapshot` that satisfy `predicate` (every
/// visible row when null), in RID order. The predicate is evaluated once
/// over the whole table with perf::BatchEvaluateMask.
std::vector<storage::Rid> SelectRows(const storage::Table& table,
                                     const expr::Expr* predicate,
                                     uint64_t snapshot);

/// Keeps the RID-addressed `rids` of `source` (index or semijoin
/// survivors) that are visible at the snapshot and pass `residual` (null =
/// all; evaluated per row, since such survivors are sparse), and charges
/// them to the governor as one run of `row_bytes` rows.
Result<std::vector<storage::Rid>> FetchRows(
    ExecContext* ctx, const storage::Table& source,
    const std::vector<storage::Rid>& rids, const expr::Expr* residual,
    uint64_t row_bytes);

/// The identity column list 0..n-1 of `schema`.
std::vector<size_t> AllColumns(const storage::Schema& schema);

/// Resolves column names to indexes in `schema`.
Result<std::vector<size_t>> ResolveColumns(
    const storage::Schema& schema, const std::vector<std::string>& columns);

/// The catalog table named `table`, or kNotFound.
Result<const storage::Table*> LookupTable(const ExecContext& ctx,
                                          const std::string& table);

/// The sorted index on `table`.`column`, or kNotFound.
Result<const storage::SortedIndex*> LookupIndex(const ExecContext& ctx,
                                                const std::string& table,
                                                const std::string& column);

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_OPERATOR_H_
