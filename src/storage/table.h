// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// In-memory columnar table. Rows are addressed by RID (row id, 0-based
// position), which also models the record identifier that nonclustered
// indexes store. Integer-physical columns (int64/date) and doubles are
// stored in native arrays; strings in a vector<string>.
//
// Snapshot versioning: physical storage is append-only. Each row carries an
// insert epoch and an optional delete epoch (0 = live); an UPDATE is a
// delete-stamp of the old version plus an append of the new one, and a
// rollback is a truncation of the appended tail plus clearing of the fresh
// delete stamps. Readers evaluate visibility against a snapshot epoch:
// a row is visible iff it was inserted at or before the snapshot and not
// deleted at or before it. Tables that have never seen DML keep no epoch
// arrays at all and every row is visible — the read path is unchanged for
// bulk-loaded, read-only workloads.

#ifndef ROBUSTQO_STORAGE_TABLE_H_
#define ROBUSTQO_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace robustqo {
namespace storage {

/// Row identifier: position of the row in its table.
using Rid = uint64_t;

/// Snapshot epoch that sees every committed version (the "latest" view).
inline constexpr uint64_t kLatestSnapshot = UINT64_MAX;

/// A single typed column stored natively.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const;

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void Append(const Value& v);

  /// Unboxed accessors (abort on type mismatch).
  int64_t Int64At(Rid rid) const { return ints_[rid]; }
  double DoubleAt(Rid rid) const { return doubles_[rid]; }
  const std::string& StringAt(Rid rid) const { return strings_[rid]; }

  /// Boxed accessor.
  Value ValueAt(Rid rid) const;

  /// Typed gather: appends entries `rids[0]`, `rids[1]`, ... of `source`
  /// (same type), in that order, with no Value boxing. RIDs may
  /// repeat and need not be sorted.
  void AppendGather(const ColumnVector& source, const std::vector<Rid>& rids);

  void Reserve(size_t n);

  /// Drops all entries past the first `n` (rollback of appended rows).
  void Truncate(size_t n);

 private:
  DataType type_;
  std::vector<int64_t> ints_;      // kInt64 / kDate
  std::vector<double> doubles_;    // kDouble
  std::vector<std::string> strings_;  // kString
};

/// A named table with a fixed schema.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }

  /// Appends a full row; values must match the schema arity and types.
  void AppendRow(const std::vector<Value>& values);

  /// Column-wise gather: appends rows `rids[0]`, `rids[1]`, ... of `source`,
  /// where this table's column j receives `source` column `columns[j]`.
  void AppendGather(const Table& source, const std::vector<Rid>& rids,
                    const std::vector<size_t>& columns);

  /// Direct column access for bulk loading / scanning.
  ColumnVector* mutable_column(size_t i) { return columns_[i].get(); }
  const ColumnVector& column(size_t i) const { return *columns_[i]; }

  /// Column by name; aborts if absent (use schema().ColumnIndex for the
  /// checked variant).
  const ColumnVector& column(const std::string& name) const;

  /// Boxed cell access.
  Value ValueAt(Rid rid, size_t col) const { return columns_[col]->ValueAt(rid); }

  /// Full boxed row (mostly for tests / small results).
  std::vector<Value> RowAt(Rid rid) const;

  /// Marks row count after bulk column loading; all columns must have
  /// exactly `n` entries.
  void FinalizeBulkLoad();

  void Reserve(size_t n);

  // --- Snapshot versioning (see file header) ---------------------------

  /// True once the table has seen at least one versioned write. Unversioned
  /// tables have no per-row epoch arrays and every row is visible at every
  /// snapshot.
  bool versioned() const { return versioned_; }

  /// Is row `rid` visible to a reader at `snapshot`? Always true for
  /// unversioned tables. A row is visible iff
  ///   insert_epoch <= snapshot AND (delete_epoch == 0 OR
  ///                                 delete_epoch > snapshot).
  bool VisibleAt(Rid rid, uint64_t snapshot = kLatestSnapshot) const {
    if (!versioned_) return true;
    if (insert_epochs_[rid] > snapshot) return false;
    const uint64_t del = delete_epochs_[rid];
    return del == 0 || del > snapshot;
  }

  /// Appends a row stamped with insert epoch `epoch`. Materializes the
  /// epoch arrays on first use (pre-existing rows get epoch 0 = always
  /// visible, never deleted).
  void AppendRowVersioned(const std::vector<Value>& values, uint64_t epoch);

  /// Delete-stamps / un-stamps a row. MarkDeleted on an already-deleted
  /// row is a no-op returning false (the caller skips it for rollback
  /// bookkeeping).
  bool MarkDeleted(Rid rid, uint64_t epoch);
  void ClearDelete(Rid rid);

  uint64_t InsertEpochOf(Rid rid) const {
    return versioned_ ? insert_epochs_[rid] : 0;
  }
  uint64_t DeleteEpochOf(Rid rid) const {
    return versioned_ ? delete_epochs_[rid] : 0;
  }

  /// Drops all physically-stored rows past the first `n` (rollback of an
  /// aborted append tail). Dropping rows requires a versioned table; a
  /// call that drops nothing is a no-op on any table.
  void TruncateRows(uint64_t n);

  /// Rows visible at `snapshot` (== num_rows() for unversioned tables).
  uint64_t VisibleRowCount(uint64_t snapshot = kLatestSnapshot) const;

  /// Reverts every committed write with epoch > `epoch`: truncates rows
  /// inserted after it and clears delete stamps placed after it. Restores
  /// the table to exactly its state as of `epoch` (chaos sweeps use this
  /// to reset shared state between runs).
  void RevertWritesAfter(uint64_t epoch);

  /// Order-sensitive FNV-1a checksum over the rows visible at `snapshot`.
  /// Two tables with identical visible contents (values, in RID order)
  /// produce identical checksums — the torn-write detector of the chaos
  /// sweep's committed-or-untouched contract.
  uint64_t VisibleChecksum(uint64_t snapshot = kLatestSnapshot) const;

 private:
  /// Materializes insert/delete epoch arrays (epoch 0 for existing rows).
  void EnsureVersioned();

  std::string name_;
  Schema schema_;
  std::vector<std::unique_ptr<ColumnVector>> columns_;
  uint64_t num_rows_ = 0;
  bool versioned_ = false;
  std::vector<uint64_t> insert_epochs_;  // parallel to rows once versioned
  std::vector<uint64_t> delete_epochs_;  // 0 = live
};

}  // namespace storage
}  // namespace robustqo

#endif  // ROBUSTQO_STORAGE_TABLE_H_
