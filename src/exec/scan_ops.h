// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Table access paths: sequential scan, single-index range scan, and the
// index-intersection plan the paper uses as its canonical "risky" plan
// (fast at low selectivity, disastrous at high selectivity because every
// qualifying record costs one random I/O).

#ifndef ROBUSTQO_EXEC_SCAN_OPS_H_
#define ROBUSTQO_EXEC_SCAN_OPS_H_

#include <optional>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace robustqo {
namespace exec {

/// Full sequential scan with optional predicate; the "stable" plan whose
/// cost is essentially independent of selectivity.
class SeqScanOp final : public PhysicalOperator {
 public:
  /// `output_columns` empty means all columns.
  SeqScanOp(std::string table, expr::ExprPtr predicate,
            std::vector<std::string> output_columns = {});

  Result<storage::Table> Execute(ExecContext* ctx) const override;
  std::string Describe() const override;

 private:
  std::string table_;
  expr::ExprPtr predicate_;
  std::vector<std::string> output_columns_;
};

/// One sargable range on one indexed column.
struct IndexRange {
  std::string column;
  std::optional<double> lo;  // inclusive
  std::optional<double> hi;  // inclusive
};

/// Range scan of a single nonclustered index followed by RID fetches, with
/// an optional residual predicate applied to the fetched rows.
class IndexRangeScanOp final : public PhysicalOperator {
 public:
  IndexRangeScanOp(std::string table, IndexRange range,
                   expr::ExprPtr residual_predicate,
                   std::vector<std::string> output_columns = {});

  Result<storage::Table> Execute(ExecContext* ctx) const override;
  std::string Describe() const override;

 private:
  std::string table_;
  IndexRange range_;
  expr::ExprPtr residual_;
  std::vector<std::string> output_columns_;
};

/// Index-intersection access path: scan several indexes, intersect the RID
/// lists, fetch only the survivors. One random I/O per surviving record.
class IndexIntersectionOp final : public PhysicalOperator {
 public:
  IndexIntersectionOp(std::string table, std::vector<IndexRange> ranges,
                      expr::ExprPtr residual_predicate,
                      std::vector<std::string> output_columns = {});

  Result<storage::Table> Execute(ExecContext* ctx) const override;
  std::string Describe() const override;

 private:
  std::string table_;
  std::vector<IndexRange> ranges_;
  expr::ExprPtr residual_;
  std::vector<std::string> output_columns_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_SCAN_OPS_H_
