// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Filtering, projection and aggregation operators.

#ifndef ROBUSTQO_EXEC_AGG_OPS_H_
#define ROBUSTQO_EXEC_AGG_OPS_H_

#include <string>
#include <vector>

#include "exec/operator.h"

namespace robustqo {
namespace exec {

/// Residual predicate applied to a child's output.
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(OperatorPtr child, expr::ExprPtr predicate);
  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr child_;
  expr::ExprPtr predicate_;
};

/// Emits at most the first `limit` rows of the child's output (SQL LIMIT).
/// The child runs to completion first, so this truncates its row selection
/// rather than short-circuiting it.
class LimitOp final : public PhysicalOperator {
 public:
  LimitOp(OperatorPtr child, uint64_t limit);
  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr child_;
  uint64_t limit_;
};

/// Column projection of a child's output.
class ProjectOp final : public PhysicalOperator {
 public:
  ProjectOp(OperatorPtr child, std::vector<std::string> columns);
  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr child_;
  std::vector<std::string> columns_;
};

/// Aggregate function kinds.
enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate: kind applied to `column` (ignored for COUNT(*)),
/// emitted as `output_name`.
struct AggSpec {
  AggKind kind;
  std::string column;       // empty for COUNT(*)
  std::string output_name;
};

/// Aggregation without grouping; always emits exactly one row.
class ScalarAggregateOp final : public PhysicalOperator {
 public:
  ScalarAggregateOp(OperatorPtr child, std::vector<AggSpec> aggs);
  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr child_;
  std::vector<AggSpec> aggs_;
};

/// Hash aggregation with grouping columns (integer-physical group keys).
class GroupByAggregateOp final : public PhysicalOperator {
 public:
  GroupByAggregateOp(OperatorPtr child, std::vector<std::string> group_columns,
                     std::vector<AggSpec> aggs);
  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr child_;
  std::vector<std::string> group_columns_;
  std::vector<AggSpec> aggs_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_AGG_OPS_H_
