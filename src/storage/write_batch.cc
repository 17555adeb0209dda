#include "storage/write_batch.h"

#include "util/macros.h"

namespace robustqo {
namespace storage {

Result<CommitStats> WriteBatch::Commit(fault::FaultInjector* fault) {
  const uint64_t epoch = catalog_->BeginDataEpoch();
  const uint64_t base_rows = table_->num_rows();
  // Delete stamps we actually placed (an already-dead RID is skipped), so
  // rollback clears exactly our own stamps.
  std::vector<Rid> stamped;
  stamped.reserve(deletes_.size());

  auto rollback = [&]() {
    table_->TruncateRows(base_rows);
    for (Rid rid : stamped) table_->ClearDelete(rid);
    catalog_->AbandonDataEpoch();
  };

  CommitStats stats;
  stats.epoch = epoch;
  stats.rows_updated = updates_;

  // Apply phase: one storage.write.apply probe per staged row mutation.
  // Delete stamps go first so an update's old version dies at the same
  // epoch its replacement is born.
  for (Rid rid : deletes_) {
    if (fault != nullptr) {
      Status injected = fault->Check(fault::sites::kWriteApply);
      if (!injected.ok()) {
        rollback();
        return Status(injected.code(), injected.message() + " applying " +
                                           table_->name() + " mutation");
      }
    }
    RQO_CHECK_MSG(rid < base_rows, "delete of a row staged in this batch");
    if (table_->MarkDeleted(rid, epoch)) {
      stamped.push_back(rid);
      ++stats.rows_deleted;
    }
  }
  for (const std::vector<Value>& row : inserts_) {
    if (fault != nullptr) {
      Status injected = fault->Check(fault::sites::kWriteApply);
      if (!injected.ok()) {
        rollback();
        return Status(injected.code(), injected.message() + " applying " +
                                           table_->name() + " mutation");
      }
    }
    table_->AppendRowVersioned(row, epoch);
    ++stats.rows_inserted;
  }

  // Commit point: the batch is fully staged in place but not yet visible
  // (no snapshot at the current data epoch sees epoch-stamped rows).
  if (fault != nullptr) {
    Status injected = fault->Check(fault::sites::kWriteCommit);
    if (!injected.ok()) {
      rollback();
      return Status(injected.code(), injected.message() + " committing " +
                                         table_->name() + " batch");
    }
  }

  // Publish: infallible from here on.
  catalog_->PublishDataEpoch(epoch);
  catalog_->RebuildIndexesFor(table_->name());
  return stats;
}

}  // namespace storage
}  // namespace robustqo
