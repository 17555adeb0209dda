#include "exec/star_ops.h"

#include <algorithm>

#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace exec {

using storage::Rid;
using storage::Table;

StarSemiJoinOp::StarSemiJoinOp(std::string fact_table,
                               std::vector<DimSemiJoin> dims,
                               expr::ExprPtr fact_predicate,
                               std::vector<std::string> output_columns)
    : fact_table_(std::move(fact_table)),
      dims_(std::move(dims)),
      fact_predicate_(std::move(fact_predicate)),
      output_columns_(std::move(output_columns)) {
  RQO_CHECK_MSG(!dims_.empty(), "star semijoin needs at least one dimension");
}

Result<RowSet> StarSemiJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table* fact, LookupTable(*ctx, fact_table_));

  // Phase 1: per-dimension semijoin — find qualifying fact RIDs via the FK
  // index, one probe per selected dimension key. The RID sets are transient
  // workspace held until the intersection phase.
  fault::MemoryReservation workspace(ctx->governor);
  std::vector<std::vector<Rid>> rid_sets;
  rid_sets.reserve(dims_.size());
  for (const DimSemiJoin& dim : dims_) {
    RQO_ASSIGN_OR_RETURN(const Table* dim_table,
                         LookupTable(*ctx, dim.dim_table));
    RQO_ASSIGN_OR_RETURN(
        const storage::SortedIndex* fk_index,
        LookupIndex(*ctx, fact_table_, dim.fact_fk_column));
    RQO_ASSIGN_OR_RETURN(const size_t pk_idx,
                         dim_table->schema().ColumnIndex(dim.dim_pk_column));

    ctx->meter.ChargeSeqTuples(ctx->cost_model, dim_table->num_rows());
    std::vector<Rid> fact_rids;
    uint64_t entries_this_dim = 0;
    const storage::ColumnVector& pk_col = dim_table->column(pk_idx);
    for (Rid drid : SelectRows(*dim_table, dim.dim_predicate.get(),
                               ctx->snapshot_epoch)) {
      const int64_t pk = pk_col.Int64At(drid);
      uint64_t entries = 0;
      std::vector<Rid> matches =
          fk_index->EqualLookup(static_cast<double>(pk), &entries);
      ctx->meter.ChargeIndexProbe(ctx->cost_model, entries);
      entries_this_dim += entries;
      fact_rids.insert(fact_rids.end(), matches.begin(), matches.end());
    }
    // RID-set bookkeeping (sorting for the intersection phase).
    ctx->meter.ChargeCpuTuples(ctx->cost_model, entries_this_dim);
    RQO_RETURN_NOT_OK(workspace.Grow(fact_rids.size() * sizeof(Rid)));
    RQO_RETURN_NOT_OK(ctx->CheckPoint());
    std::sort(fact_rids.begin(), fact_rids.end());
    rid_sets.push_back(std::move(fact_rids));
  }

  // Phase 2: intersect the per-dimension RID sets.
  std::vector<Rid> survivors = std::move(rid_sets[0]);
  for (size_t i = 1; i < rid_sets.size(); ++i) {
    std::vector<Rid> next;
    std::set_intersection(survivors.begin(), survivors.end(),
                          rid_sets[i].begin(), rid_sets[i].end(),
                          std::back_inserter(next));
    survivors = std::move(next);
  }

  // Phase 3: fetch the surviving fact records (one random I/O each) and
  // keep those visible at the snapshot that pass the fact's own filter.
  ctx->meter.ChargeRandomIo(ctx->cost_model, survivors.size());
  std::vector<std::string> cols = output_columns_;
  if (cols.empty()) {
    for (const auto& c : fact->schema().columns()) cols.push_back(c.name);
  }
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(fact->schema(), cols));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(fact->schema(), cols));
  const uint64_t row_bytes = ApproximateRowBytes(schema);
  RQO_ASSIGN_OR_RETURN(
      std::vector<Rid> kept,
      FetchRows(ctx, *fact, survivors, fact_predicate_.get(), row_bytes));
  RowSet out = RowSet::Select(fact_table_ + "$starsemi", std::move(schema),
                              fact, col_idx, std::move(kept));
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string StarSemiJoinOp::Describe() const {
  std::vector<std::string> dims;
  dims.reserve(dims_.size());
  for (const auto& d : dims_) dims.push_back(d.dim_table);
  return StrPrintf("StarSemiJoin(%s |x| {%s})", fact_table_.c_str(),
                   StrJoin(dims, ", ").c_str());
}

}  // namespace exec
}  // namespace robustqo
