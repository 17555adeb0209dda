// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// RowSet: an operator's output in late-materialized form (Abadi et al.,
// "Materialization Strategies in a Column-Oriented DBMS", ICDE 2007).
// Instead of a gathered table, operators hand their parents row-id
// selections over the tables the values live in. A scan's output is its
// RID selection over the catalog table (no selection at all when it keeps
// every row); a join composes each input slice's RID list with its matched
// pairs, one RID gather per slice rather than one value gather per column;
// filters, sorts and limits compose the same way; projections only remap
// columns. Values are copied once, when PhysicalOperator::Run() gathers the
// plan's result with Materialize().
//
// A RowSet borrows catalog tables, and its RID lists live in the run's
// workspace (exec/workspace.h), so it must not outlive the plan run that
// made it. Reads run while the catalog is stable (DML applies only between
// runs), so borrowing adds no sharing a materialized copy did not.

#ifndef ROBUSTQO_EXEC_ROW_SET_H_
#define ROBUSTQO_EXEC_ROW_SET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/workspace.h"
#include "storage/table.h"

namespace robustqo {
namespace exec {

/// A RID list in workspace storage, shared by the slices composed from it
/// and valid for the run that made it; null means every row, in order.
using RidList = const RidBuffer*;

/// The rows one table contributes to a RowSet: row i of the set is row
/// `(*rids)[i]` of `table`, or row i itself when `rids` is null.
struct RowSlice {
  const storage::Table* table = nullptr;
  /// Keeps an operator-built `table` alive; null for a borrowed one.
  std::shared_ptr<const storage::Table> owned;
  RidList rids;
};

/// One RowSet column: value i is row `rids[i]` of `column`, or row i when
/// `rids` is null.
struct ColumnView {
  const storage::ColumnVector* column = nullptr;
  const storage::Rid* rids = nullptr;

  storage::DataType type() const { return column->type(); }
  int64_t Int64At(uint64_t i) const {
    return column->Int64At(rids == nullptr ? i : rids[i]);
  }

  /// The first `n` values of an integer-physical column, in row order: the
  /// column's own array when there is no selection, else a copy gathered
  /// into a `workspace` buffer.
  const int64_t* Int64Values(uint64_t n, Workspace* workspace) const;
  /// The first `n` values of a double column, likewise.
  const double* DoubleValues(uint64_t n, Workspace* workspace) const;
};

/// Output rows of an operator: a schema, its row count, the slices its
/// values come from, and for each output column the (slice, column) it
/// reads.
class RowSet {
 public:
  /// Rows `rids` of `table` (borrowed); output column j is `table` column
  /// `columns[j]`, typed as `schema` column j.
  static RowSet Select(std::string name, storage::Schema schema,
                       const storage::Table* table,
                       const std::vector<size_t>& columns,
                       const RidBuffer& rids);

  /// The first `num_rows` rows of `table` (borrowed), with no selection.
  static RowSet Identity(std::string name, storage::Schema schema,
                         const storage::Table* table,
                         const std::vector<size_t>& columns,
                         uint64_t num_rows);

  /// Every row and column of an operator-built table.
  static RowSet Own(storage::Table table);

  /// One input to Combine: `set`'s rows `(*rows)[0], (*rows)[1], ...`
  /// (positions in `set`; they may repeat), or all its rows when `rows` is
  /// null.
  struct Input {
    const RowSet* set;
    RidList rows;
  };

  /// Rows drawn side by side from `inputs` (every input contributes
  /// `num_rows` rows); output column j is column `sources[j].second` of
  /// input `sources[j].first`. Only slices some output column reads are
  /// kept, each composed with its input's rows once: an unselected slice
  /// shares `rows`, a selected one gathers its RIDs through them into a
  /// `workspace` buffer.
  static RowSet Combine(std::string name, storage::Schema schema,
                        uint64_t num_rows, const std::vector<Input>& inputs,
                        const std::vector<std::pair<size_t, size_t>>& sources,
                        Workspace* workspace);

  /// Rows `rows` of this set with every column (a filter, sort or limit).
  RowSet Take(std::string name, const RidBuffer& rows,
              Workspace* workspace) const;

  const std::string& name() const { return name_; }
  const storage::Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  const std::vector<RowSlice>& slices() const { return slices_; }
  /// (slice, column in the slice's table) of output column `c`.
  const std::pair<size_t, size_t>& source(size_t c) const {
    return columns_[c];
  }

  /// Output column `c`, read through its slice.
  ColumnView column(size_t c) const;

  /// The gather: every output column copied into a table, one column at a
  /// time (an unselected slice through identity RIDs in `workspace`).
  storage::Table Materialize(Workspace* workspace) const;

 private:
  std::string name_;
  storage::Schema schema_;
  uint64_t num_rows_ = 0;
  std::vector<RowSlice> slices_;
  std::vector<std::pair<size_t, size_t>> columns_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_ROW_SET_H_
