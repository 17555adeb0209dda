#include "core/database.h"

#include "sql/parser.h"
#include "util/macros.h"

namespace robustqo {
namespace core {

Result<ExecutionResult> RunPlan(const opt::PlannedQuery& plan,
                                exec::ExecContext* ctx) {
  Result<storage::Table> rows = plan.root->Run(ctx);
  fault::QueryGovernor* governor = ctx->governor;
  if (governor != nullptr) governor->PublishMetrics(ctx->metrics);
  if (!rows.ok()) return rows.status();
  const uint64_t spj_rows = ctx->aggregate_input_rows != UINT64_MAX
                                ? ctx->aggregate_input_rows
                                : rows.value().num_rows();
  if (ctx->metrics != nullptr) {
    ctx->metrics->GetSketch("exec.query.simulated_seconds")
        ->Observe(ctx->meter.total_seconds());
    ctx->metrics->GetSketch("exec.query.rows")
        ->Observe(static_cast<double>(rows.value().num_rows()));
    ctx->metrics->GetSketch("exec.query.spj_rows")
        ->Observe(static_cast<double>(spj_rows));
  }
  return ExecutionResult{std::move(rows).value(),
                         ctx->meter.total_seconds(),
                         ctx->meter,
                         spj_rows,
                         plan.estimated_cost,
                         plan.label,
                         plan.Explain(),
                         governor != nullptr ? governor->peak_memory_bytes() : 0,
                         governor != nullptr ? governor->rows_charged() : 0};
}

Database::Database() {
  statistics_ = std::make_unique<stats::StatisticsCatalog>(&catalog_);
  histogram_estimator_ =
      std::make_unique<stats::HistogramEstimator>(statistics_.get());
  robust_estimator_ = std::make_unique<stats::RobustSampleEstimator>(
      statistics_.get(), stats::RobustEstimatorConfig{});
  histogram_optimizer_ = std::make_unique<opt::Optimizer>(
      &catalog_, histogram_estimator_.get(), cost_model_);
  robust_optimizer_ = std::make_unique<opt::Optimizer>(
      &catalog_, robust_estimator_.get(), cost_model_);
  last_used_ = robust_optimizer_.get();
  statistics_->SetFaultInjector(&fault_);
}

void Database::UpdateStatistics(const stats::StatisticsConfig& config) {
  statistics_->BuildAllHistograms(config.histogram_buckets);
  statistics_->BuildAllSamples(config);
}

void Database::SetRobustnessLevel(stats::RobustnessLevel level) {
  SetConfidenceThreshold(stats::ConfidenceThresholdFor(level));
}

void Database::SetConfidenceThreshold(double threshold) {
  robust_estimator_->set_confidence_threshold(threshold);
}

double Database::confidence_threshold() const {
  return robust_estimator_->config().confidence_threshold;
}

stats::CardinalityEstimator* Database::estimator(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kHistogram:
      return histogram_estimator_.get();
    case EstimatorKind::kRobustSample:
      return robust_estimator_.get();
  }
  return robust_estimator_.get();
}

Result<opt::QuerySpec> Database::ParseSql(
    const std::string& statement) const {
  return sql::ParseQuery(catalog_, statement);
}

Result<ExecutionResult> Database::ExecuteSql(
    const std::string& statement, EstimatorKind kind,
    const opt::OptimizerOptions& options) {
  Result<opt::QuerySpec> query = ParseSql(statement);
  if (!query.ok()) return query.status();
  return Execute(query.value(), kind, options);
}

Result<StatementResult> Database::ExecuteStatement(
    const std::string& statement, EstimatorKind kind,
    const opt::OptimizerOptions& options) {
  Result<sql::ParsedStatement> parsed =
      sql::ParseStatement(catalog_, statement);
  if (!parsed.ok()) return parsed.status();
  StatementResult result;
  result.kind = parsed.value().kind;
  if (result.kind == sql::StatementKind::kQuery) {
    Result<ExecutionResult> rows = Execute(parsed.value().query, kind, options);
    if (!rows.ok()) return rows.status();
    result.query = std::move(rows).value();
  } else {
    Result<exec::DmlResult> dml = ExecuteDml(parsed.value().dml);
    if (!dml.ok()) return dml.status();
    result.dml = dml.value();
  }
  return result;
}

Result<exec::DmlResult> Database::ExecuteDml(const sql::DmlSpec& dml,
                                             uint64_t snapshot_epoch) {
  exec::ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.cost_model = cost_model_;
  ctx.snapshot_epoch = snapshot_epoch;
  fault::QueryGovernor governor(governor_limits_);
  ctx.governor = &governor;
  ctx.fault = &fault_;
  ctx.metrics = metrics_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("db.dml_executed")->Increment();
  }
  Result<exec::DmlResult> result = ApplyDml(dml, &ctx);
  if (metrics_ != nullptr) {
    if (!result.ok()) {
      metrics_->GetCounter("db.dml_failed")->Increment();
    } else {
      metrics_->GetCounter("db.dml_rows_written")
          ->Increment(result.value().rows_inserted +
                      result.value().rows_deleted);
    }
  }
  return result;
}

Result<exec::DmlResult> Database::ApplyDml(const sql::DmlSpec& dml,
                                           exec::ExecContext* ctx) {
  exec::DmlExecutor executor(&catalog_, statistics_.get());
  Result<exec::DmlResult> result = [&]() -> Result<exec::DmlResult> {
    switch (dml.kind) {
      case sql::StatementKind::kInsert:
        return executor.Insert(ctx, dml.table, dml.insert_rows);
      case sql::StatementKind::kUpdate:
        return executor.Update(ctx, dml.table, dml.set_exprs, dml.where);
      case sql::StatementKind::kDelete:
        return executor.Delete(ctx, dml.table, dml.where);
      case sql::StatementKind::kQuery:
        break;
    }
    return Status::InvalidArgument("not a DML statement");
  }();
  if (ctx->governor != nullptr) ctx->governor->PublishMetrics(ctx->metrics);
  return result;
}

Result<opt::PlannedQuery> Database::Plan(const opt::QuerySpec& query,
                                         EstimatorKind kind,
                                         const opt::OptimizerOptions& options) {
  opt::Optimizer* optimizer = kind == EstimatorKind::kHistogram
                                  ? histogram_optimizer_.get()
                                  : robust_optimizer_.get();
  last_used_ = optimizer;
  opt::OptimizerOptions effective = options;
  // Database-level provenance capture acts as a default; a caller that
  // explicitly enabled it per-call keeps its own top-K.
  if (provenance_capture_ && !effective.provenance_enabled) {
    effective.provenance_enabled = true;
    effective.provenance_top_k = provenance_top_k_;
  }
  // The database's metrics registry is the default; a per-call one wins.
  if (effective.metrics == nullptr) effective.metrics = metrics_;
  if (effective.metrics != nullptr) {
    effective.metrics->GetCounter("db.queries_planned")->Increment();
  }
  // Plan-time probes (statistics reads) fire into the call's trace.
  fault_.set_tracer(effective.tracer);
  Result<opt::PlannedQuery> planned = optimizer->Optimize(query, effective);
  fault_.set_tracer(nullptr);
  return planned;
}

Result<ExecutionResult> Database::ExecutePlan(const opt::PlannedQuery& plan,
                                              uint64_t snapshot_epoch,
                                              obs::Tracer* tracer) {
  exec::ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.cost_model = cost_model_;
  ctx.snapshot_epoch = snapshot_epoch;
  fault::QueryGovernor governor(governor_limits_);
  ctx.governor = &governor;
  ctx.fault = &fault_;
  ctx.tracer = tracer;
  ctx.metrics = metrics_;
  ctx.set_workspace(&workspace_);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("db.queries_executed")->Increment();
  }
  fault_.set_tracer(tracer);
  Result<ExecutionResult> result = RunPlan(plan, &ctx);
  fault_.set_tracer(nullptr);
  if (metrics_ != nullptr && !result.ok()) {
    metrics_->GetCounter("db.queries_failed")->Increment();
  }
  return result;
}

Result<ExecutionResult> Database::Execute(const opt::QuerySpec& query,
                                          EstimatorKind kind,
                                          const opt::OptimizerOptions& options) {
  Result<opt::PlannedQuery> plan = Plan(query, kind, options);
  if (!plan.ok()) return plan.status();
  return ExecutePlan(plan.value());
}

const opt::Optimizer::Metrics& Database::last_optimizer_metrics() const {
  RQO_CHECK(last_used_ != nullptr);
  return last_used_->last_metrics();
}

}  // namespace core
}  // namespace robustqo
