// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// WriteBatch: a staged DML mutation against one table, applied atomically.
// The DML executor stages inserts / delete-stamps / updates (decomposed
// into delete + insert of the new version) and then calls Commit, which
// walks the write-path fault sites in order:
//
//   storage.write.apply     one probe per staged row mutation
//   storage.write.commit    one probe at the publish point
//
// Any failure rolls the whole batch back — appended rows are truncated,
// fresh delete stamps cleared, the reserved data epoch abandoned — and the
// typed Status is returned (kUnavailable is retryable). Only after every
// fallible step has passed is the data epoch published and the table's
// secondary indexes rebuilt; readers pinned to an older snapshot keep
// seeing the pre-commit state.

#ifndef ROBUSTQO_STORAGE_WRITE_BATCH_H_
#define ROBUSTQO_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/status.h"

namespace robustqo {
namespace storage {

/// What a committed batch did, for reporting and statistics maintenance.
struct CommitStats {
  uint64_t rows_inserted = 0;
  uint64_t rows_deleted = 0;  ///< delete stamps placed (updates count here)
  uint64_t rows_updated = 0;  ///< staged updates (also counted in the above)
  /// The published data epoch; readers at snapshots >= this see the batch.
  uint64_t epoch = 0;
};

/// One table's staged mutation. Not reusable after Commit.
class WriteBatch {
 public:
  WriteBatch(Catalog* catalog, Table* table)
      : catalog_(catalog), table_(table) {}
  WriteBatch(const WriteBatch&) = delete;
  WriteBatch& operator=(const WriteBatch&) = delete;

  Table* table() const { return table_; }

  /// Stages a full row append; arity/types must match the schema.
  void StageInsert(std::vector<Value> row) {
    inserts_.push_back(std::move(row));
  }

  /// Stages a delete stamp for `rid` (must be visible to the writer).
  void StageDelete(Rid rid) { deletes_.push_back(rid); }

  /// Stages an update: delete-stamp the old version, append the new one.
  void StageUpdate(Rid old_rid, std::vector<Value> new_row) {
    deletes_.push_back(old_rid);
    inserts_.push_back(std::move(new_row));
    ++updates_;
  }

  bool empty() const { return inserts_.empty() && deletes_.empty(); }

  /// Applies the staged mutation atomically. `fault` (nullable) is probed
  /// per the file header. On success the data epoch is published, the
  /// table's indexes are rebuilt, and the stats are returned.
  Result<CommitStats> Commit(fault::FaultInjector* fault);

 private:
  Catalog* catalog_;
  Table* table_;
  std::vector<std::vector<Value>> inserts_;
  std::vector<Rid> deletes_;
  uint64_t updates_ = 0;
};

}  // namespace storage
}  // namespace robustqo

#endif  // ROBUSTQO_STORAGE_WRITE_BATCH_H_
