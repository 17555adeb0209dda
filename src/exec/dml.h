// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// DML executor: the write-path counterpart of the physical operators. It
// targets rows with the same expression trees the read path uses, stages
// the mutation into a storage::WriteBatch, and commits under a retry
// policy — transient (kUnavailable) write faults are retried with
// deterministic backoff, everything else surfaces as a typed Status with
// the table fully rolled back.
//
// Life of a write:
//   1. resolve the target table (kNotFound if absent);
//   2. UPDATE/DELETE: scan RIDs visible at the writer's snapshot, evaluate
//      the WHERE predicate per row, charge the governor per scanned row;
//   3. UPDATE: evaluate SET expressions against the old row version and
//      coerce results to the column types (kInvalidArgument on mismatch);
//   4. stage deletes/inserts/updates into a WriteBatch, charge the
//      governor for the staged rows;
//   5. WriteBatch::Commit under RetryWithBackoff — the fault sites
//      storage.write.apply / storage.write.commit fire inside, and a
//      failed attempt leaves the table byte-identical to its pre-write
//      state before the next attempt (or the error);
//   6. on success the data epoch is published and, when a statistics
//      catalog is attached, the committed row versions count toward the
//      table's statistics-rebuild threshold.
//
// The executor is deliberately independent of the SQL front end: callers
// hand it tables, literal rows and expression trees, so the core layer can
// drive it from a parsed DmlSpec and tests can drive it directly.

#ifndef ROBUSTQO_EXEC_DML_H_
#define ROBUSTQO_EXEC_DML_H_

#include <string>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"
#include "fault/retry.h"
#include "statistics/statistics_catalog.h"
#include "storage/catalog.h"
#include "storage/value.h"
#include "storage/write_batch.h"
#include "util/status.h"

namespace robustqo {
namespace exec {

/// What one DML statement did.
struct DmlResult {
  uint64_t rows_matched = 0;   ///< rows the WHERE clause targeted
  uint64_t rows_inserted = 0;  ///< new row versions (updates count here too)
  uint64_t rows_deleted = 0;   ///< delete stamps placed
  uint64_t rows_updated = 0;   ///< rows rewritten in place (delete+insert)
  /// Data epoch the mutation published; readers at snapshots >= epoch see
  /// it. Unchanged current epoch when the statement matched nothing.
  uint64_t epoch = 0;
  /// What the commit retry loop did (attempts == 1 when no fault fired).
  fault::RetryStats retry;

  /// Rows affected in the conventional client-facing sense.
  uint64_t rows_affected() const {
    return rows_updated != 0 ? rows_updated
                             : (rows_inserted != 0 ? rows_inserted
                                                   : rows_deleted);
  }
};

/// Executes INSERT / UPDATE / DELETE against one catalog. Borrowed
/// pointers; `statistics` is nullable (no online maintenance then).
class DmlExecutor {
 public:
  DmlExecutor(storage::Catalog* catalog,
              stats::StatisticsCatalog* statistics = nullptr)
      : catalog_(catalog), statistics_(statistics) {}

  /// Retry schedule for transient commit failures (default: 3 attempts).
  void set_retry_policy(const fault::RetryPolicy& policy) {
    retry_policy_ = policy;
  }
  const fault::RetryPolicy& retry_policy() const { return retry_policy_; }

  /// INSERT INTO `table` VALUES `rows`. Rows must be full rows in schema
  /// column order; int64 literals widen to DOUBLE columns and coerce to
  /// DATE columns, anything else mismatched is kInvalidArgument.
  Result<DmlResult> Insert(ExecContext* ctx, const std::string& table,
                           const std::vector<std::vector<storage::Value>>& rows);

  /// UPDATE `table` SET `sets` [WHERE `where`]. SET expressions are
  /// evaluated against the old row version; null `where` targets every
  /// visible row.
  Result<DmlResult> Update(
      ExecContext* ctx, const std::string& table,
      const std::vector<std::pair<std::string, expr::ExprPtr>>& sets,
      const expr::ExprPtr& where);

  /// DELETE FROM `table` [WHERE `where`].
  Result<DmlResult> Delete(ExecContext* ctx, const std::string& table,
                           const expr::ExprPtr& where);

 private:
  /// Visible-row targets of `where` at the writer's snapshot, with the
  /// governor charged for every row scanned.
  Result<std::vector<storage::Rid>> TargetRids(ExecContext* ctx,
                                               const storage::Table& table,
                                               const expr::ExprPtr& where);

  /// Commits `batch` under the retry policy and counts the committed rows
  /// toward statistics maintenance. Fills the commit fields of `out`.
  Status CommitBatch(ExecContext* ctx, storage::WriteBatch* batch,
                     DmlResult* out);

  storage::Catalog* catalog_;
  stats::StatisticsCatalog* statistics_;
  fault::RetryPolicy retry_policy_;
};

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_DML_H_
