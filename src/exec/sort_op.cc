#include "exec/sort_op.h"

#include <algorithm>
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

  // Order vector is transient sort workspace.
  fault::MemoryReservation workspace(ctx->governor);
  RQO_RETURN_NOT_OK(workspace.Grow(n * sizeof(storage::Rid)));
  std::vector<storage::Rid> order(n);
  std::iota(order.begin(), order.end(), storage::Rid{0});
  const auto sort_by = [&order](const auto& keys) {
    std::stable_sort(order.begin(), order.end(),
                     [&keys](storage::Rid a, storage::Rid b) {
                       return keys[a] < keys[b];
                     });
  };
  if (storage::IsIntegerPhysical(key.type())) {
    sort_by(key.Int64Values(n));
  } else {
    sort_by(key.DoubleValues(n));
  }
  RQO_RETURN_NOT_OK(ctx->CheckPoint());

  RQO_RETURN_NOT_OK(ctx->TickRows(n, ApproximateRowBytes(input.schema())));
  return input.Take("sort", std::move(order));
}

std::string SortOp::Describe() const { return "Sort(" + column_ + ")"; }

std::vector<const PhysicalOperator*> SortOp::children() const {
  return {child_.get()};
}

}  // namespace exec
}  // namespace robustqo
