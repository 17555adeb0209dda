// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Star-join semijoin strategy (paper Section 6.2.3): compute the semijoin
// of the fact table with each filtered dimension via the indexed foreign-
// key columns, intersect the resulting fact RID sets, and fetch only the
// qualifying fact records. Like index intersection, this plan is cheap when
// few fact rows survive and pays one random I/O per survivor otherwise.

#ifndef ROBUSTQO_EXEC_STAR_OPS_H_
#define ROBUSTQO_EXEC_STAR_OPS_H_

#include <string>
#include <vector>

#include "exec/operator.h"

namespace robustqo {
namespace exec {

/// One dimension participating in the semijoin phase.
struct DimSemiJoin {
  std::string dim_table;
  expr::ExprPtr dim_predicate;   ///< filter on the dimension (may be null)
  std::string dim_pk_column;     ///< dimension primary key
  std::string fact_fk_column;    ///< indexed FK column of the fact table
};

/// Semijoin-intersect-fetch star strategy. Output rows are fact-table rows
/// that satisfy `fact_predicate` (may be null), projected to
/// `output_columns` (empty keeps all fact columns).
class StarSemiJoinOp final : public PhysicalOperator {
 public:
  StarSemiJoinOp(std::string fact_table, std::vector<DimSemiJoin> dims,
                 expr::ExprPtr fact_predicate = nullptr,
                 std::vector<std::string> output_columns = {});

  Result<storage::Table> Execute(ExecContext* ctx) const override;
  std::string Describe() const override;

 private:
  std::string fact_table_;
  std::vector<DimSemiJoin> dims_;
  expr::ExprPtr fact_predicate_;
  std::vector<std::string> output_columns_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_STAR_OPS_H_
