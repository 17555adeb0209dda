#include "exec/operator.h"

#include "util/macros.h"

namespace robustqo {
namespace exec {

namespace {

// Rows between cooperative governor checkpoints inside operator loops.
constexpr uint64_t kCheckpointInterval = 256;

}  // namespace

Status ExecContext::CheckPoint() {
  if (governor == nullptr) return Status::OK();
  RQO_RETURN_NOT_OK(governor->CheckCancelled());
  return governor->CheckTime(meter.total_seconds());
}

Status ExecContext::Tick(uint64_t rows, uint64_t bytes) {
  if (governor == nullptr) return Status::OK();
  if (rows > 0) RQO_RETURN_NOT_OK(governor->ChargeRows(rows));
  if (bytes > 0) RQO_RETURN_NOT_OK(governor->ChargeMemory(bytes));
  rows_since_checkpoint_ += rows;
  if (rows_since_checkpoint_ >= kCheckpointInterval) {
    rows_since_checkpoint_ = 0;
    return CheckPoint();
  }
  return Status::OK();
}

Result<storage::Table> PhysicalOperator::Run(ExecContext* ctx) const {
  // Fault sites every operator passes through: workspace allocation (fails
  // with the site's typed code) and a clock stall (charges simulated
  // seconds, which the governor's time budget then sees).
  if (ctx->fault != nullptr) {
    Status alloc = ctx->fault->Check(fault::sites::kOperatorAlloc);
    if (!alloc.ok()) {
      return Status(alloc.code(),
                    alloc.message() + " in " + Describe());
    }
    const double stall = ctx->fault->CheckStall(fault::sites::kClockStall);
    if (stall > 0.0) ctx->meter.ChargePenaltySeconds(stall);
  }
  RQO_RETURN_NOT_OK(ctx->CheckPoint());
  if (ctx->tracer != nullptr || ctx->metrics != nullptr) {
    const double cost_before = ctx->meter.total_seconds();
    uint64_t span = 0;
    if (ctx->tracer != nullptr) {
      span = ctx->tracer->BeginSpan("exec", Describe());
    }
    Result<storage::Table> out = Execute(ctx);
    const double cost = ctx->meter.total_seconds() - cost_before;
    if (ctx->tracer != nullptr) {
      obs::TraceAttrs attrs = {{"cost_seconds", obs::AttrF(cost)}};
      if (out.ok()) {
        attrs.emplace_back("rows_out", obs::AttrU64(out.value().num_rows()));
      } else {
        attrs.emplace_back("error", out.status().ToString());
      }
      ctx->tracer->EndSpan(span, std::move(attrs));
    }
    if (ctx->metrics != nullptr) {
      ctx->metrics->GetCounter("exec.operators_run")->Increment();
      if (out.ok()) {
        ctx->metrics->GetCounter("exec.rows_out")
            ->Increment(out.value().num_rows());
      } else {
        ctx->metrics->GetCounter("exec.operator_errors")->Increment();
      }
    }
    return out;
  }
  return Execute(ctx);
}

std::string PhysicalOperator::TreeString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->TreeString(indent + 1);
  }
  return out;
}

uint64_t ApproximateRowBytes(const storage::Schema& schema) {
  return static_cast<uint64_t>(schema.num_columns()) * 8;
}

Result<storage::Schema> ProjectSchema(
    const storage::Schema& schema, const std::vector<std::string>& columns) {
  std::vector<storage::ColumnDef> defs;
  defs.reserve(columns.size());
  for (const std::string& name : columns) {
    auto idx = schema.ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    defs.push_back(schema.column(idx.value()));
  }
  return storage::Schema(std::move(defs));
}

void AppendProjectedRow(const storage::Table& source, storage::Rid rid,
                        const std::vector<size_t>& column_indexes,
                        storage::Table* dest) {
  std::vector<storage::Value> row;
  row.reserve(column_indexes.size());
  for (size_t col : column_indexes) row.push_back(source.ValueAt(rid, col));
  dest->AppendRow(row);
}

Result<std::vector<size_t>> ResolveColumns(
    const storage::Schema& schema, const std::vector<std::string>& columns) {
  std::vector<size_t> out;
  out.reserve(columns.size());
  for (const std::string& name : columns) {
    auto idx = schema.ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    out.push_back(idx.value());
  }
  return out;
}

storage::Schema ConcatSchemas(const storage::Schema& a,
                              const storage::Schema& b) {
  std::vector<storage::ColumnDef> defs = a.columns();
  defs.insert(defs.end(), b.columns().begin(), b.columns().end());
  return storage::Schema(std::move(defs));
}

Result<const storage::Table*> LookupTable(const ExecContext& ctx,
                                          const std::string& table) {
  if (ctx.catalog == nullptr) {
    return Status::Internal("ExecContext has no catalog");
  }
  const storage::Table* t = ctx.catalog->GetTable(table);
  if (t == nullptr) return Status::NotFound("no table " + table);
  return t;
}

Result<const storage::SortedIndex*> LookupIndex(const ExecContext& ctx,
                                                const std::string& table,
                                                const std::string& column) {
  if (ctx.catalog == nullptr) {
    return Status::Internal("ExecContext has no catalog");
  }
  const storage::SortedIndex* index = ctx.catalog->GetIndex(table, column);
  if (index == nullptr) {
    return Status::NotFound("no index on " + table + "." + column);
  }
  return index;
}

}  // namespace exec
}  // namespace robustqo
