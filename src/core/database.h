// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Database: the convenience facade tying the whole system together —
// catalog + statistics + estimators + optimizer + executor. This is the
// entry point examples and experiment harnesses use; individual subsystems
// remain directly usable for finer control.

#ifndef ROBUSTQO_CORE_DATABASE_H_
#define ROBUSTQO_CORE_DATABASE_H_

#include <memory>
#include <optional>
#include <string>

#include "exec/dml.h"
#include "exec/operator.h"
#include "fault/fault_injector.h"
#include "fault/governor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "statistics/histogram_estimator.h"
#include "statistics/robust_sample_estimator.h"
#include "statistics/statistics_catalog.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace robustqo {
namespace core {

/// Which cardinality-estimation module the optimizer should use.
enum class EstimatorKind {
  kHistogram,     ///< the baseline: equi-depth histograms + AVI
  kRobustSample,  ///< the paper's robust Bayesian sample-based estimator
};

/// End-to-end result of planning and executing one query.
struct ExecutionResult {
  storage::Table rows;
  /// Simulated execution seconds (the experiments' "execution time").
  double simulated_seconds = 0.0;
  /// Full work counters from execution.
  exec::CostMeter meter;
  /// Size of the SPJ result (rows entering the final aggregation, or the
  /// result rows themselves for aggregate-free queries) — the quantity
  /// quality reports compare against the optimizer's estimate.
  uint64_t spj_rows = 0;
  /// Optimizer's predicted cost for the chosen plan.
  double estimated_cost = 0.0;
  /// Structure label of the chosen plan (e.g. "Agg(IxSect(...))").
  std::string plan_label;
  /// Printable plan tree.
  std::string plan_tree;
  /// Governor accounting for this query: peak workspace + materialized
  /// bytes and total rows charged (0 when executed without a governor).
  uint64_t peak_memory_bytes = 0;
  uint64_t rows_charged = 0;
};

/// Runs `plan` under the caller's context (its governor, fault injector,
/// sinks and snapshot) and assembles the ExecutionResult: the rows, the
/// SPJ row count, the exec.query.* sketches and the governor's accounting,
/// published into `ctx->metrics`. Touches no Database state, so request
/// tasks on pool workers call it concurrently, each with its own context.
Result<ExecutionResult> RunPlan(const opt::PlannedQuery& plan,
                                exec::ExecContext* ctx);

/// Result of any SQL statement: exactly one of `query` / `dml` is set,
/// matching `kind`.
struct StatementResult {
  sql::StatementKind kind = sql::StatementKind::kQuery;
  std::optional<ExecutionResult> query;
  std::optional<exec::DmlResult> dml;
};

/// An in-memory database with both estimation stacks configured.
class Database {
 public:
  Database();

  storage::Catalog* catalog() { return &catalog_; }
  const storage::Catalog& catalog() const { return catalog_; }
  stats::StatisticsCatalog* statistics() { return statistics_.get(); }

  /// Builds histograms, samples and join synopses for every table — the
  /// UPDATE STATISTICS analogue. Call after loading data (and again after
  /// changing `config.seed` to redraw samples).
  void UpdateStatistics(const stats::StatisticsConfig& config = {});

  /// Sets the system-wide robustness configuration (Section 6.2.5); a
  /// per-query hint in OptimizerOptions overrides it.
  void SetRobustnessLevel(stats::RobustnessLevel level);
  void SetConfidenceThreshold(double threshold);
  double confidence_threshold() const;

  stats::HistogramEstimator* histogram_estimator() {
    return histogram_estimator_.get();
  }
  stats::RobustSampleEstimator* robust_estimator() {
    return robust_estimator_.get();
  }
  stats::CardinalityEstimator* estimator(EstimatorKind kind);

  const exec::CostModel& cost_model() const { return cost_model_; }

  /// Parses a SQL statement (see sql/parser.h for the supported subset)
  /// against this database's catalog.
  Result<opt::QuerySpec> ParseSql(const std::string& statement) const;

  /// Parses, plans and executes a SQL statement.
  Result<ExecutionResult> ExecuteSql(
      const std::string& statement,
      EstimatorKind kind = EstimatorKind::kRobustSample,
      const opt::OptimizerOptions& options = {});

  /// Parses and executes any supported statement — SELECT dispatches to
  /// ExecuteSql, INSERT/UPDATE/DELETE to ExecuteDml.
  Result<StatementResult> ExecuteStatement(
      const std::string& statement,
      EstimatorKind kind = EstimatorKind::kRobustSample,
      const opt::OptimizerOptions& options = {});

  /// Executes a parsed DML statement under the database's governor limits
  /// and fault injector: stages the mutation, commits atomically (retrying
  /// transient write faults), bumps the data epoch, and counts the committed
  /// rows toward statistics maintenance. `snapshot_epoch` pins which row
  /// versions the UPDATE/DELETE targeting scan sees (default: latest).
  Result<exec::DmlResult> ExecuteDml(
      const sql::DmlSpec& dml,
      uint64_t snapshot_epoch = storage::kLatestSnapshot);

  /// Applies one parsed INSERT/UPDATE/DELETE under the caller's context
  /// (governor, fault injector, sinks, snapshot) with the default
  /// fault::RetryPolicy for transient commit faults, publishing the governor's accounting into `ctx->metrics`. The
  /// one DML dispatch: ExecuteDml and the query service's writes both go
  /// through it. Counts no db.* metric of its own.
  Result<exec::DmlResult> ApplyDml(const sql::DmlSpec& dml,
                                   exec::ExecContext* ctx);

  /// Rebuilds statistics for every table the maintenance layer flagged
  /// stale (enough committed modifications, or an explicit drift flag) and
  /// bumps the statistics epoch once per rebuilt table. Returns how many
  /// tables were rebuilt — the background-maintenance analogue of
  /// UpdateStatistics. Cached plans keyed to the old epoch lazily
  /// invalidate on their next lookup.
  uint64_t RebuildPendingStatistics() {
    return statistics_->RebuildAllPending();
  }

  /// Plans `query` with the chosen estimation module. Everything that
  /// differs per call travels in `options`: the T% hint, provenance
  /// capture and the tracer. A per-call tracer also receives the fault
  /// injector's plan-time fires (statistics reads) for the duration of
  /// the call.
  Result<opt::PlannedQuery> Plan(const opt::QuerySpec& query,
                                 EstimatorKind kind,
                                 const opt::OptimizerOptions& options = {});

  /// Plans and executes `query`, returning rows plus the simulated cost.
  Result<ExecutionResult> Execute(const opt::QuerySpec& query,
                                  EstimatorKind kind,
                                  const opt::OptimizerOptions& options = {});

  /// Executes an already-built plan under a fresh per-query governor
  /// (configured via SetGovernorLimits) with the database's fault injector
  /// armed. Fails with a typed Status on governor trips
  /// (kResourceExhausted), cancellation (kCancelled) or injected faults —
  /// the process never crashes on a resource-limited or faulty query.
  /// `snapshot_epoch` pins which row versions scans see, so a request
  /// admitted before a DML commit reads the pre-commit state (default:
  /// latest). `tracer` (nullable) receives this call's operator spans and
  /// fault-injector fires. Runs take their temporaries from the
  /// database's one executor workspace, so calls must not overlap.
  Result<ExecutionResult> ExecutePlan(
      const opt::PlannedQuery& plan,
      uint64_t snapshot_epoch = storage::kLatestSnapshot,
      obs::Tracer* tracer = nullptr);

  /// Metrics from the most recent Plan()/Execute() optimization.
  const opt::Optimizer::Metrics& last_optimizer_metrics() const;

  // ---- Plan provenance (strictly read-only w.r.t. plan choice) ----

  /// Default-enables sensitivity capture for every subsequent Plan() that
  /// did not explicitly request it. Off by default: plans, results, and all
  /// pre-existing reports stay byte-identical until a caller opts in.
  void SetProvenanceCapture(bool enabled) { provenance_capture_ = enabled; }
  bool provenance_capture() const { return provenance_capture_; }
  void SetProvenanceTopK(size_t top_k) { provenance_top_k_ = top_k; }
  size_t provenance_top_k() const { return provenance_top_k_; }

  // ---- Observability sinks (borrowed, nullable) ----

  /// Attaches a metrics registry for query/estimate/executor counters.
  /// Pass nullptr to detach. The registry must outlive its attachment.
  void SetMetrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    fault_.set_metrics(metrics);
  }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // ---- Robustness: fault injection and per-query resource limits ----

  /// The database's fault injector. Statistics reads probe its
  /// sample/synopsis sites and every ExecutePlan() probes the operator
  /// sites; arm/disarm/reseed through this handle (tests, chaos harness,
  /// the shell's SET FAULT).
  fault::FaultInjector* fault_injector() { return &fault_; }

  /// Per-query budgets applied to every subsequent ExecutePlan(). Limits
  /// of 0 mean unlimited (the default).
  void SetGovernorLimits(const fault::GovernorLimits& limits) {
    governor_limits_ = limits;
  }
  const fault::GovernorLimits& governor_limits() const {
    return governor_limits_;
  }

 private:
  storage::Catalog catalog_;
  std::unique_ptr<stats::StatisticsCatalog> statistics_;
  std::unique_ptr<stats::HistogramEstimator> histogram_estimator_;
  std::unique_ptr<stats::RobustSampleEstimator> robust_estimator_;
  exec::CostModel cost_model_;
  std::unique_ptr<opt::Optimizer> histogram_optimizer_;
  std::unique_ptr<opt::Optimizer> robust_optimizer_;
  opt::Optimizer* last_used_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  fault::FaultInjector fault_;
  fault::GovernorLimits governor_limits_;
  exec::Workspace workspace_;  // ExecutePlan's, warm across calls
  bool provenance_capture_ = false;
  size_t provenance_top_k_ = 3;
};

}  // namespace core
}  // namespace robustqo

#endif  // ROBUSTQO_CORE_DATABASE_H_
