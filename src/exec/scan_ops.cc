#include "exec/scan_ops.h"

#include <algorithm>

#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace exec {

using storage::Rid;
using storage::Table;

namespace {

std::vector<std::string> AllColumnNames(const storage::Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_columns());
  for (const auto& col : schema.columns()) names.push_back(col.name);
  return names;
}

std::vector<std::string> EffectiveColumns(
    const storage::Schema& schema, const std::vector<std::string>& requested) {
  return requested.empty() ? AllColumnNames(schema) : requested;
}

}  // namespace

// ----- SeqScanOp -----

SeqScanOp::SeqScanOp(std::string table, expr::ExprPtr predicate,
                     std::vector<std::string> output_columns)
    : table_(std::move(table)),
      predicate_(std::move(predicate)),
      output_columns_(std::move(output_columns)) {}

Result<Table> SeqScanOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* source, LookupTable(*ctx, table_));
  const std::vector<std::string> cols =
      EffectiveColumns(source->schema(), output_columns_);
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(source->schema(), cols));
  Table out(table_ + "$scan", std::move(schema));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(source->schema(), cols));
  const uint64_t row_bytes = ApproximateRowBytes(out.schema());

  ctx->meter.ChargeSeqTuples(ctx->cost_model, source->num_rows());
  const std::vector<Rid> rids =
      SelectRows(*source, predicate_.get(), ctx->snapshot_epoch);
  RQO_RETURN_NOT_OK(ctx->TickRows(rids.size(), row_bytes));
  out.AppendGather(*source, rids, col_idx);
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string SeqScanOp::Describe() const {
  return StrPrintf("SeqScan(%s%s%s)", table_.c_str(),
                   predicate_ == nullptr ? "" : ", ",
                   predicate_ == nullptr ? "" : predicate_->ToString().c_str());
}

// ----- IndexRangeScanOp -----

IndexRangeScanOp::IndexRangeScanOp(std::string table, IndexRange range,
                                   expr::ExprPtr residual_predicate,
                                   std::vector<std::string> output_columns)
    : table_(std::move(table)),
      range_(std::move(range)),
      residual_(std::move(residual_predicate)),
      output_columns_(std::move(output_columns)) {}

Result<Table> IndexRangeScanOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* source, LookupTable(*ctx, table_));
  RQO_ASSIGN_OR_RETURN(const storage::SortedIndex* index,
                       LookupIndex(*ctx, table_, range_.column));

  uint64_t entries = 0;
  std::vector<Rid> rids = index->RangeLookup(range_.lo, range_.hi, &entries);
  ctx->meter.ChargeIndexProbe(ctx->cost_model, entries);
  ctx->meter.ChargeRandomIo(ctx->cost_model, rids.size());

  const std::vector<std::string> cols =
      EffectiveColumns(source->schema(), output_columns_);
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(source->schema(), cols));
  Table out(table_ + "$ixscan", std::move(schema));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(source->schema(), cols));
  RQO_RETURN_NOT_OK(FetchRows(ctx, *source, rids, residual_.get(), col_idx,
                              &out));
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string IndexRangeScanOp::Describe() const {
  return StrPrintf("IndexRangeScan(%s.%s)", table_.c_str(),
                   range_.column.c_str());
}

// ----- IndexIntersectionOp -----

IndexIntersectionOp::IndexIntersectionOp(
    std::string table, std::vector<IndexRange> ranges,
    expr::ExprPtr residual_predicate, std::vector<std::string> output_columns)
    : table_(std::move(table)),
      ranges_(std::move(ranges)),
      residual_(std::move(residual_predicate)),
      output_columns_(std::move(output_columns)) {
  RQO_CHECK_MSG(ranges_.size() >= 2,
                "index intersection needs at least two indexes");
}

Result<Table> IndexIntersectionOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* source, LookupTable(*ctx, table_));

  uint64_t entries_total = 0;
  std::vector<std::vector<Rid>> rid_lists;
  rid_lists.reserve(ranges_.size());
  fault::MemoryReservation rid_workspace(ctx->governor);
  for (const IndexRange& range : ranges_) {
    RQO_ASSIGN_OR_RETURN(const storage::SortedIndex* index,
                         LookupIndex(*ctx, table_, range.column));
    uint64_t entries = 0;
    rid_lists.push_back(index->RangeLookup(range.lo, range.hi, &entries));
    RQO_RETURN_NOT_OK(
        rid_workspace.Grow(rid_lists.back().size() * sizeof(Rid)));
    ctx->meter.ChargeIndexProbe(ctx->cost_model, entries);
    entries_total += entries;
  }
  // RID-list intersection (sort + progressive set_intersection); charged as
  // CPU work proportional to the combined list lengths.
  ctx->meter.ChargeCpuTuples(ctx->cost_model, entries_total);
  RQO_RETURN_NOT_OK(ctx->CheckPoint());
  for (auto& list : rid_lists) std::sort(list.begin(), list.end());
  std::vector<Rid> survivors = std::move(rid_lists[0]);
  for (size_t i = 1; i < rid_lists.size(); ++i) {
    std::vector<Rid> next;
    std::set_intersection(survivors.begin(), survivors.end(),
                          rid_lists[i].begin(), rid_lists[i].end(),
                          std::back_inserter(next));
    survivors = std::move(next);
  }
  ctx->meter.ChargeRandomIo(ctx->cost_model, survivors.size());

  const std::vector<std::string> cols =
      EffectiveColumns(source->schema(), output_columns_);
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(source->schema(), cols));
  Table out(table_ + "$ixintersect", std::move(schema));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(source->schema(), cols));
  RQO_RETURN_NOT_OK(FetchRows(ctx, *source, survivors, residual_.get(),
                              col_idx, &out));
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string IndexIntersectionOp::Describe() const {
  std::vector<std::string> cols;
  cols.reserve(ranges_.size());
  for (const auto& r : ranges_) cols.push_back(r.column);
  return StrPrintf("IndexIntersection(%s: %s)", table_.c_str(),
                   StrJoin(cols, " & ").c_str());
}

}  // namespace exec
}  // namespace robustqo
