#include "exec/dml.h"

#include <utility>

#include "perf/batch_eval.h"
#include "storage/write_batch.h"
#include "util/macros.h"

namespace robustqo {
namespace exec {
namespace {

using storage::DataType;
using storage::Rid;
using storage::Table;
using storage::Value;

// Mirrors the parser's literal coercion so callers that bypass SQL get the
// same conversions: int64 widens to DOUBLE and interconverts with DATE.
Result<Value> CoerceToColumn(const Value& v, const storage::ColumnDef& col) {
  if (v.type() == col.type) return v;
  if (v.type() == DataType::kInt64 && col.type == DataType::kDouble) {
    return Value::Double(static_cast<double>(v.AsInt64()));
  }
  if (v.type() == DataType::kInt64 && col.type == DataType::kDate) {
    return Value::Date(v.AsInt64());
  }
  if (v.type() == DataType::kDate && col.type == DataType::kInt64) {
    return Value::Int64(v.AsInt64());
  }
  return Status::InvalidArgument(
      std::string("cannot store a ") + storage::DataTypeName(v.type()) +
      " value in " + storage::DataTypeName(col.type) + " column " + col.name);
}

}  // namespace

Result<std::vector<Rid>> DmlExecutor::TargetRids(ExecContext* ctx,
                                                 const Table& table,
                                                 const expr::ExprPtr& where) {
  // The WHERE runs once over the whole table; the governor is charged one
  // row per visible row.
  std::vector<uint8_t> mask;
  if (where != nullptr) perf::BatchEvaluateMask(*where, table, &mask);
  std::vector<Rid> targets;
  uint64_t visible = 0;
  const uint64_t num_rows = table.num_rows();
  for (Rid rid = 0; rid < num_rows; ++rid) {
    if (!table.VisibleAt(rid, ctx->snapshot_epoch)) continue;
    ++visible;
    if (where == nullptr || mask[rid] != 0) targets.push_back(rid);
  }
  RQO_RETURN_NOT_OK(ctx->TickRows(visible, 0));
  return targets;
}

Status DmlExecutor::CommitBatch(ExecContext* ctx, storage::WriteBatch* batch,
                                DmlResult* out) {
  if (batch->empty()) {
    out->epoch = catalog_->data_epoch();
    out->retry.attempts = 0;
    return Status::OK();
  }
  // Retryable (kUnavailable) commit failures leave the table byte-identical
  // to its pre-write state, so re-running Commit on the same staged batch
  // is safe; the fault injector's per-site streams advance across attempts.
  Result<storage::CommitStats> committed = fault::RetryWithBackoff(
      retry_policy_, [&]() { return batch->Commit(ctx->fault); }, &out->retry,
      ctx->metrics);
  if (!committed.ok()) return committed.status();
  out->rows_inserted = committed.value().rows_inserted;
  out->rows_deleted = committed.value().rows_deleted;
  out->rows_updated = committed.value().rows_updated;
  out->epoch = committed.value().epoch;
  // Only a published batch counts toward the rebuild threshold; an update
  // counts twice (its delete stamp and its new version).
  if (statistics_ != nullptr) {
    statistics_->ObserveCommit(batch->table()->name(),
                               out->rows_inserted + out->rows_deleted);
  }
  return Status::OK();
}

Result<DmlResult> DmlExecutor::Insert(
    ExecContext* ctx, const std::string& table,
    const std::vector<std::vector<Value>>& rows) {
  Table* target = catalog_->GetMutableTable(table);
  if (target == nullptr) {
    return Status::NotFound("no table named " + table);
  }
  const storage::Schema& schema = target->schema();
  const uint64_t row_bytes = ApproximateRowBytes(schema);
  storage::WriteBatch batch(catalog_, target);
  for (const std::vector<Value>& row : rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT row has " + std::to_string(row.size()) + " values; " +
          table + " has " + std::to_string(schema.num_columns()) +
          " columns");
    }
    std::vector<Value> coerced;
    coerced.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      RQO_ASSIGN_OR_RETURN(Value v, CoerceToColumn(row[i], schema.column(i)));
      coerced.push_back(std::move(v));
    }
    RQO_RETURN_NOT_OK(ctx->Tick(1, row_bytes));
    batch.StageInsert(std::move(coerced));
  }
  DmlResult result;
  RQO_RETURN_NOT_OK(CommitBatch(ctx, &batch, &result));
  return result;
}

Result<DmlResult> DmlExecutor::Update(
    ExecContext* ctx, const std::string& table,
    const std::vector<std::pair<std::string, expr::ExprPtr>>& sets,
    const expr::ExprPtr& where) {
  Table* target = catalog_->GetMutableTable(table);
  if (target == nullptr) {
    return Status::NotFound("no table named " + table);
  }
  if (sets.empty()) {
    return Status::InvalidArgument("UPDATE with no SET assignments");
  }
  const storage::Schema& schema = target->schema();
  std::vector<size_t> set_cols;
  set_cols.reserve(sets.size());
  for (const auto& [column, value_expr] : sets) {
    (void)value_expr;
    RQO_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(column));
    set_cols.push_back(idx);
  }
  RQO_ASSIGN_OR_RETURN(std::vector<Rid> targets,
                       TargetRids(ctx, *target, where));

  const uint64_t row_bytes = ApproximateRowBytes(schema);
  storage::WriteBatch batch(catalog_, target);
  for (Rid rid : targets) {
    // New version = old row with the SET columns re-evaluated against the
    // old version (so "SET c = c + 1" reads the pre-update value).
    std::vector<Value> new_row = target->RowAt(rid);
    for (size_t i = 0; i < sets.size(); ++i) {
      Value raw = sets[i].second->Evaluate(*target, rid);
      RQO_ASSIGN_OR_RETURN(Value v,
                           CoerceToColumn(raw, schema.column(set_cols[i])));
      new_row[set_cols[i]] = std::move(v);
    }
    RQO_RETURN_NOT_OK(ctx->Tick(1, row_bytes));
    batch.StageUpdate(rid, std::move(new_row));
  }

  DmlResult result;
  result.rows_matched = targets.size();
  RQO_RETURN_NOT_OK(CommitBatch(ctx, &batch, &result));
  return result;
}

Result<DmlResult> DmlExecutor::Delete(ExecContext* ctx,
                                      const std::string& table,
                                      const expr::ExprPtr& where) {
  Table* target = catalog_->GetMutableTable(table);
  if (target == nullptr) {
    return Status::NotFound("no table named " + table);
  }
  RQO_ASSIGN_OR_RETURN(std::vector<Rid> targets,
                       TargetRids(ctx, *target, where));

  RQO_RETURN_NOT_OK(ctx->TickRows(targets.size(), 0));
  storage::WriteBatch batch(catalog_, target);
  for (Rid rid : targets) batch.StageDelete(rid);

  DmlResult result;
  result.rows_matched = targets.size();
  RQO_RETURN_NOT_OK(CommitBatch(ctx, &batch, &result));
  return result;
}

}  // namespace exec
}  // namespace robustqo
