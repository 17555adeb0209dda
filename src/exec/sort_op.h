// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Explicit sort operator: reorders the child's output by one numeric
// column. Enables merge joins on inputs that do not already arrive in
// clustering order.

#ifndef ROBUSTQO_EXEC_SORT_OP_H_
#define ROBUSTQO_EXEC_SORT_OP_H_

#include <string>

#include "exec/operator.h"

namespace robustqo {
namespace exec {

/// Sorts the child output ascending by `column`. Costing uses the shared
/// SortCost formula from cost_model.h.
class SortOp final : public PhysicalOperator {
 public:
  SortOp(OperatorPtr child, std::string column);

  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr child_;
  std::string column_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_SORT_OP_H_
