// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Join operators: hash join, merge join (sorted inputs), and indexed
// nested-loop join — the three join strategies whose crossovers drive the
// paper's Experiment 2.

#ifndef ROBUSTQO_EXEC_JOIN_OPS_H_
#define ROBUSTQO_EXEC_JOIN_OPS_H_

#include <string>
#include <vector>

#include "exec/operator.h"

namespace robustqo {
namespace exec {

/// Hash join: builds on the left child, probes with the right child.
/// Join keys must be integer-physical columns.
class HashJoinOp final : public PhysicalOperator {
 public:
  /// `output_columns` names columns of the concatenated (build ++ probe)
  /// schema; empty keeps everything.
  HashJoinOp(OperatorPtr build, OperatorPtr probe, std::string build_key,
             std::string probe_key,
             std::vector<std::string> output_columns = {});

  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr build_;
  OperatorPtr probe_;
  std::string build_key_;
  std::string probe_key_;
  std::vector<std::string> output_columns_;
};

/// Merge join over inputs sorted on their join keys (the optimizer only
/// offers this path for clustering-order-preserving scans). An input that
/// arrives out of order, as a written table's re-appended versions do, is
/// sorted first and charged like a SortOp.
class MergeJoinOp final : public PhysicalOperator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
              std::string right_key,
              std::vector<std::string> output_columns = {});

  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_;
  std::string right_key_;
  std::vector<std::string> output_columns_;
};

/// Indexed nested-loop join: for each outer row, probes the index on
/// `inner_table.inner_index_column` and fetches matching inner records by
/// RID. Output schema is (outer ++ inner).
class IndexNestedLoopJoinOp final : public PhysicalOperator {
 public:
  IndexNestedLoopJoinOp(OperatorPtr outer, std::string outer_key,
                        std::string inner_table,
                        std::string inner_index_column,
                        expr::ExprPtr inner_residual = nullptr,
                        std::vector<std::string> output_columns = {});

  std::string Describe() const override;
  std::vector<const PhysicalOperator*> children() const override;

 private:
  Result<RowSet> Execute(ExecContext* ctx) const override;

  OperatorPtr outer_;
  std::string outer_key_;
  std::string inner_table_;
  std::string inner_index_column_;
  expr::ExprPtr inner_residual_;
  std::vector<std::string> output_columns_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_JOIN_OPS_H_
