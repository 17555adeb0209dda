#include "exec/sort_op.h"

#include <algorithm>
#include <numeric>

#include "util/macros.h"

namespace robustqo {
namespace exec {

SortOp::SortOp(OperatorPtr child, std::string column)
    : child_(std::move(child)), column_(std::move(column)) {}

Result<storage::Table> SortOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const storage::Table input, child_->Run(ctx));
  const uint64_t n = input.num_rows();
  ctx->meter.ChargeSortWork(ctx->cost_model, n);

  RQO_ASSIGN_OR_RETURN(const size_t key_idx,
                       input.schema().ColumnIndex(column_));
  const storage::ColumnVector& key = input.column(key_idx);
  if (key.type() == storage::DataType::kString) {
    return Status::InvalidArgument("sort key " + column_ +
                                   " must be numeric-physical");
  }

  // Order vector is transient sort workspace.
  fault::MemoryReservation workspace(ctx->governor);
  RQO_RETURN_NOT_OK(workspace.Grow(n * sizeof(storage::Rid)));
  std::vector<storage::Rid> order(n);
  std::iota(order.begin(), order.end(), storage::Rid{0});
  if (storage::IsIntegerPhysical(key.type())) {
    std::stable_sort(order.begin(), order.end(),
                     [&key](storage::Rid a, storage::Rid b) {
                       return key.Int64At(a) < key.Int64At(b);
                     });
  } else {
    std::stable_sort(order.begin(), order.end(),
                     [&key](storage::Rid a, storage::Rid b) {
                       return key.DoubleAt(a) < key.DoubleAt(b);
                     });
  }
  RQO_RETURN_NOT_OK(ctx->CheckPoint());

  storage::Table out("sort", input.schema());
  RQO_RETURN_NOT_OK(ctx->TickRows(n, ApproximateRowBytes(out.schema())));
  out.AppendGather(input, order, AllColumns(input.schema()));
  return out;
}

std::string SortOp::Describe() const { return "Sort(" + column_ + ")"; }

std::vector<const PhysicalOperator*> SortOp::children() const {
  return {child_.get()};
}

}  // namespace exec
}  // namespace robustqo
