#include "exec/operator.h"

#include <algorithm>
#include <memory>

#include "perf/batch_eval.h"
#include "util/macros.h"

namespace robustqo {
namespace exec {

namespace {

// Rows between cooperative governor checkpoints inside operator loops.
constexpr uint64_t kCheckpointInterval = 256;

}  // namespace

Workspace& ExecContext::workspace() {
  if (workspace_ != nullptr) return *workspace_;
  if (owned_workspace_ == nullptr) {
    owned_workspace_ = std::make_unique<Workspace>();
  }
  return *owned_workspace_;
}

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

Status ExecContext::TickRows(uint64_t rows, uint64_t row_bytes) {
  if (governor == nullptr || rows == 0) return Status::OK();
  const uint64_t fit =
      std::min(rows, governor->RowsWithinBudget(row_bytes));
  // Charges `n` rows known to fit: neither call can trip (a zero charge
  // could, on a governor already over budget).
  const auto charge = [this, row_bytes](uint64_t n) {
    if (n == 0) return;
    governor->ChargeRows(n);
    if (row_bytes > 0) governor->ChargeMemory(n * row_bytes);
  };
  const uint64_t to_checkpoint =
      kCheckpointInterval - rows_since_checkpoint_;
  if (fit < to_checkpoint) {
    charge(fit);
    rows_since_checkpoint_ += fit;
  } else {
    charge(to_checkpoint);
    rows_since_checkpoint_ = 0;
    RQO_RETURN_NOT_OK(CheckPoint());
    // Every later checkpoint inside the run sees the same meter and token,
    // so it passes too.
    charge(fit - to_checkpoint);
    rows_since_checkpoint_ = (fit - to_checkpoint) % kCheckpointInterval;
  }
  if (fit == rows) return Status::OK();
  return Tick(1, row_bytes);  // the row that trips a budget
}

Result<RowSet> PhysicalOperator::RunRows(ExecContext* ctx) const {
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
    Result<RowSet> out = Execute(ctx);
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

Result<storage::Table> PhysicalOperator::Run(ExecContext* ctx) const {
  Workspace& workspace = ctx->workspace();
  workspace.Reset();
  Result<storage::Table> out = [&]() -> Result<storage::Table> {
    RQO_ASSIGN_OR_RETURN(const RowSet rows, RunRows(ctx));
    return rows.Materialize(&workspace);
  }();
  workspace.Reset();  // the run's RowSets are gone; keep what it needed
  return out;
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

const RidBuffer& SelectRows(const storage::Table& table,
                            const expr::Expr* predicate, uint64_t snapshot,
                            Workspace* workspace) {
  const uint64_t n = table.num_rows();
  // The kernels write every byte of the mask, so only the predicate-free
  // path fills it.
  uint8_t* mask = workspace->Take<uint8_t>(n).data();
  uint64_t count = n;
  if (predicate == nullptr) {
    std::fill_n(mask, n, 1);
  } else {
    count = perf::BatchEvaluateMask(*predicate, table, mask,
                                    workspace->mask_scratch());
  }
  // Branch-free compaction: every row writes its RID into the next slot and
  // advances only when selected, so one spare slot absorbs the last write.
  RidBuffer& rids = workspace->Take<storage::Rid>(count + 1);
  storage::Rid* out = rids.data();
  size_t k = 0;
  if (table.versioned()) {
    for (storage::Rid rid = 0; rid < n; ++rid) {
      out[k] = rid;
      k += mask[rid] & static_cast<uint8_t>(table.VisibleAt(rid, snapshot));
    }
  } else {
    for (storage::Rid rid = 0; rid < n; ++rid) {
      out[k] = rid;
      k += mask[rid];
    }
  }
  rids.resize(k);
  return rids;
}

Result<const RidBuffer*> FetchRows(ExecContext* ctx,
                                   const storage::Table& source,
                                   std::span<const storage::Rid> rids,
                                   const expr::Expr* residual,
                                   uint64_t row_bytes) {
  RidBuffer& kept = ctx->workspace().Take<storage::Rid>();
  kept.reserve(rids.size());
  for (storage::Rid rid : rids) {
    if (!source.VisibleAt(rid, ctx->snapshot_epoch)) continue;
    if (residual == nullptr || residual->EvaluateBool(source, rid)) {
      kept.push_back(rid);
    }
  }
  RQO_RETURN_NOT_OK(ctx->TickRows(kept.size(), row_bytes));
  return &kept;
}

const RidBuffer& IntersectRids(const std::vector<const RidBuffer*>& lists,
                               Workspace* workspace) {
  const RidBuffer* survivors = lists[0];
  if (lists.size() == 1) return *survivors;
  RidBuffer* steps[2] = {&workspace->Take<storage::Rid>(),
                         &workspace->Take<storage::Rid>()};
  for (size_t i = 1; i < lists.size(); ++i) {
    RidBuffer& next = *steps[i % 2];
    next.resize(std::min(survivors->size(), lists[i]->size()));
    const auto end =
        std::set_intersection(survivors->begin(), survivors->end(),
                              lists[i]->begin(), lists[i]->end(),
                              next.begin());
    next.resize(static_cast<size_t>(end - next.begin()));
    survivors = &next;
  }
  return *survivors;
}

std::vector<size_t> AllColumns(const storage::Schema& schema) {
  std::vector<size_t> cols(schema.num_columns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  return cols;
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
