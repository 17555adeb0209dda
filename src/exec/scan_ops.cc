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

Result<RowSet> SeqScanOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* source, LookupTable(*ctx, table_));
  const std::vector<std::string> cols =
      EffectiveColumns(source->schema(), output_columns_);
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(source->schema(), cols));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(source->schema(), cols));
  const uint64_t row_bytes = ApproximateRowBytes(schema);

  ctx->meter.ChargeSeqTuples(ctx->cost_model, source->num_rows());
  // An unfiltered scan of an unversioned table keeps every row: no mask,
  // no RID list.
  RowSet out =
      predicate_ == nullptr && !source->versioned()
          ? RowSet::Identity(table_ + "$scan", std::move(schema), source,
                             col_idx, source->num_rows())
          : RowSet::Select(table_ + "$scan", std::move(schema), source,
                           col_idx,
                           SelectRows(*source, predicate_.get(),
                                      ctx->snapshot_epoch,
                                      &ctx->workspace()));
  RQO_RETURN_NOT_OK(ctx->TickRows(out.num_rows(), row_bytes));
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

Result<RowSet> IndexRangeScanOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* source, LookupTable(*ctx, table_));
  RQO_ASSIGN_OR_RETURN(const storage::SortedIndex* index,
                       LookupIndex(*ctx, table_, range_.column));

  uint64_t entries = 0;
  const std::span<const Rid> rids =
      index->RangeLookup(range_.lo, range_.hi, &entries);
  ctx->meter.ChargeIndexProbe(ctx->cost_model, entries);
  ctx->meter.ChargeRandomIo(ctx->cost_model, rids.size());

  const std::vector<std::string> cols =
      EffectiveColumns(source->schema(), output_columns_);
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(source->schema(), cols));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(source->schema(), cols));
  const uint64_t row_bytes = ApproximateRowBytes(schema);
  RQO_ASSIGN_OR_RETURN(
      const RidBuffer* kept,
      FetchRows(ctx, *source, rids, residual_.get(), row_bytes));
  RowSet out = RowSet::Select(table_ + "$ixscan", std::move(schema), source,
                              col_idx, *kept);
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

Result<RowSet> IndexIntersectionOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* source, LookupTable(*ctx, table_));

  uint64_t entries_total = 0;
  Workspace& workspace = ctx->workspace();
  std::vector<const RidBuffer*> rid_lists;
  rid_lists.reserve(ranges_.size());
  fault::MemoryReservation rid_workspace(ctx->governor);
  for (const IndexRange& range : ranges_) {
    RQO_ASSIGN_OR_RETURN(const storage::SortedIndex* index,
                         LookupIndex(*ctx, table_, range.column));
    uint64_t entries = 0;
    const std::span<const Rid> found =
        index->RangeLookup(range.lo, range.hi, &entries);
    // The one copy of the index's RIDs, sorted for the intersection.
    RidBuffer& list = workspace.Take<Rid>(found.size());
    std::copy(found.begin(), found.end(), list.begin());
    std::sort(list.begin(), list.end());
    rid_lists.push_back(&list);
    RQO_RETURN_NOT_OK(rid_workspace.Grow(list.size() * sizeof(Rid)));
    ctx->meter.ChargeIndexProbe(ctx->cost_model, entries);
    entries_total += entries;
  }
  // RID-list intersection (sort + progressive set_intersection); charged as
  // CPU work proportional to the combined list lengths.
  ctx->meter.ChargeCpuTuples(ctx->cost_model, entries_total);
  RQO_RETURN_NOT_OK(ctx->CheckPoint());
  const RidBuffer& survivors = IntersectRids(rid_lists, &workspace);
  ctx->meter.ChargeRandomIo(ctx->cost_model, survivors.size());

  const std::vector<std::string> cols =
      EffectiveColumns(source->schema(), output_columns_);
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(source->schema(), cols));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(source->schema(), cols));
  const uint64_t row_bytes = ApproximateRowBytes(schema);
  RQO_ASSIGN_OR_RETURN(
      const RidBuffer* kept,
      FetchRows(ctx, *source, survivors, residual_.get(), row_bytes));
  RowSet out = RowSet::Select(table_ + "$ixintersect", std::move(schema),
                              source, col_idx, *kept);
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
