#include "exec/sort_op.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/macros.h"

namespace robustqo {
namespace exec {

SortOp::SortOp(OperatorPtr child, std::string column)
    : child_(std::move(child)), column_(std::move(column)) {}

Result<RowSet> SortOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet input, RunChild(*child_, ctx));
  const uint64_t n = input.num_rows();
  ctx->meter.ChargeSortWork(ctx->cost_model, n);

  RQO_ASSIGN_OR_RETURN(const size_t key_idx,
                       input.schema().ColumnIndex(column_));
  const ColumnView key = input.column(key_idx);
  if (key.type() == storage::DataType::kString) {
    return Status::InvalidArgument("sort key " + column_ +
                                   " must be numeric-physical");
  }

  // The order is transient sort workspace, charged as such.
  fault::MemoryReservation reservation(ctx->governor);
  RQO_RETURN_NOT_OK(reservation.Grow(n * sizeof(storage::Rid)));
  Workspace& workspace = ctx->workspace();
  RidBuffer& order = workspace.Take<storage::Rid>(n);
  std::iota(order.begin(), order.end(), storage::Rid{0});
  const auto sort_by = [&order](const auto* keys, auto end) {
    std::stable_sort(order.begin(), end,
                     [keys](storage::Rid a, storage::Rid b) {
                       return keys[a] < keys[b];
                     });
  };
  if (storage::IsIntegerPhysical(key.type())) {
    sort_by(key.Int64Values(n, &workspace), order.end());
  } else {
    // `<` is no strict weak order once NaN is present: NaN rows go last,
    // in input order, and only the rest is sorted. Without NaN the
    // partition moves nothing.
    const double* keys = key.DoubleValues(n, &workspace);
    const auto ordered_end = std::stable_partition(
        order.begin(), order.end(),
        [keys](storage::Rid r) { return !std::isnan(keys[r]); });
    sort_by(keys, ordered_end);
  }
  RQO_RETURN_NOT_OK(ctx->CheckPoint());

  RQO_RETURN_NOT_OK(ctx->TickRows(n, ApproximateRowBytes(input.schema())));
  return input.Take("sort", order, &workspace);
}

std::string SortOp::Describe() const { return "Sort(" + column_ + ")"; }

std::vector<const PhysicalOperator*> SortOp::children() const {
  return {child_.get()};
}

}  // namespace exec
}  // namespace robustqo
