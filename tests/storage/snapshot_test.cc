// Snapshot versioning and the atomic write batch: epoch-stamped
// visibility, commit/rollback symmetry under injected faults, revert, and
// the visible checksum the chaos sweep's torn-write detector relies on.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/write_batch.h"

namespace robustqo {
namespace storage {
namespace {

std::unique_ptr<Table> MakeLoadedTable() {
  auto table = std::make_unique<Table>(
      "t", Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}}));
  for (int64_t i = 0; i < 5; ++i) {
    table->AppendRow({Value::Int64(i), Value::Double(i * 10.0)});
  }
  return table;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddTable(MakeLoadedTable()).ok());
    table_ = catalog_.GetMutableTable("t");
  }

  Catalog catalog_;
  Table* table_ = nullptr;
};

TEST_F(SnapshotTest, UnversionedTableSeesEveryRowAtEverySnapshot) {
  EXPECT_FALSE(table_->versioned());
  EXPECT_EQ(table_->VisibleRowCount(0), 5u);
  EXPECT_EQ(table_->VisibleRowCount(kLatestSnapshot), 5u);
  for (Rid r = 0; r < 5; ++r) {
    EXPECT_TRUE(table_->VisibleAt(r, 0));
  }
}

TEST_F(SnapshotTest, CommitPublishesEpochAndStampsVersions) {
  WriteBatch batch(&catalog_, table_);
  batch.StageInsert({Value::Int64(5), Value::Double(50.0)});
  batch.StageDelete(0);
  auto stats = batch.Commit(nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().epoch, 1u);
  EXPECT_EQ(stats.value().rows_inserted, 1u);
  EXPECT_EQ(stats.value().rows_deleted, 1u);
  EXPECT_EQ(catalog_.data_epoch(), 1u);

  EXPECT_TRUE(table_->versioned());
  // Pre-commit snapshot (epoch 0) still sees the original 5 rows.
  EXPECT_EQ(table_->VisibleRowCount(0), 5u);
  EXPECT_TRUE(table_->VisibleAt(0, 0));
  EXPECT_FALSE(table_->VisibleAt(5, 0));
  // The latest snapshot sees the delete and the insert.
  EXPECT_EQ(table_->VisibleRowCount(), 5u);
  EXPECT_FALSE(table_->VisibleAt(0));
  EXPECT_TRUE(table_->VisibleAt(5));
}

TEST_F(SnapshotTest, UpdateKeepsOldVersionVisibleToOlderSnapshots) {
  WriteBatch batch(&catalog_, table_);
  batch.StageUpdate(2, {Value::Int64(2), Value::Double(999.0)});
  ASSERT_TRUE(batch.Commit(nullptr).ok());

  // Snapshot 0 reads the pre-update value through the old version.
  EXPECT_TRUE(table_->VisibleAt(2, 0));
  EXPECT_EQ(table_->ValueAt(2, 1).AsDouble(), 20.0);
  // The latest snapshot reads the new version; the old one is dead.
  EXPECT_FALSE(table_->VisibleAt(2));
  EXPECT_TRUE(table_->VisibleAt(5));
  EXPECT_EQ(table_->ValueAt(5, 1).AsDouble(), 999.0);
  // Row counts agree at both snapshots: an update is not a net change.
  EXPECT_EQ(table_->VisibleRowCount(0), 5u);
  EXPECT_EQ(table_->VisibleRowCount(), 5u);
}

TEST_F(SnapshotTest, ApplyFaultRollsBackCompletely) {
  const uint64_t before = table_->VisibleChecksum();
  fault::FaultInjector injector(7);
  injector.Arm(fault::sites::kWriteApply, fault::FaultSpec::OnNth(2));

  WriteBatch batch(&catalog_, table_);
  batch.StageInsert({Value::Int64(6), Value::Double(60.0)});
  batch.StageInsert({Value::Int64(7), Value::Double(70.0)});
  batch.StageDelete(1);
  auto stats = batch.Commit(&injector);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);

  // Zero surviving effects: row count, epoch, checksum all pre-write.
  EXPECT_EQ(table_->num_rows(), 5u);
  EXPECT_EQ(table_->VisibleRowCount(), 5u);
  EXPECT_EQ(catalog_.data_epoch(), 0u);
  EXPECT_EQ(table_->VisibleChecksum(), before);
  for (Rid r = 0; r < 5; ++r) {
    EXPECT_TRUE(table_->VisibleAt(r)) << "rid " << r;
  }
}

TEST_F(SnapshotTest, CommitFaultRollsBackAndRetrySucceeds) {
  const uint64_t before = table_->VisibleChecksum();
  fault::FaultInjector injector(7);
  injector.Arm(fault::sites::kWriteCommit, fault::FaultSpec::FirstN(1));

  WriteBatch batch(&catalog_, table_);
  batch.StageDelete(4);
  auto first = batch.Commit(&injector);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(table_->VisibleChecksum(), before);
  EXPECT_EQ(catalog_.data_epoch(), 0u);

  // A failed commit restores the base state and keeps the staged vectors,
  // so re-committing the same batch is safe — and the FirstN fault has
  // passed, so it lands.
  auto second = batch.Commit(&injector);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().epoch, 1u);
  EXPECT_EQ(table_->VisibleRowCount(), 4u);
}

TEST_F(SnapshotTest, EmptyBatchCommitsCleanly) {
  // A WHERE matching zero rows is an empty batch: it still publishes an
  // epoch (commit order stays a pure function of request order) but never
  // forces the table onto the versioned path.
  WriteBatch batch(&catalog_, table_);
  EXPECT_TRUE(batch.empty());
  auto stats = batch.Commit(nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rows_inserted, 0u);
  EXPECT_EQ(stats.value().rows_deleted, 0u);
  EXPECT_EQ(catalog_.data_epoch(), 1u);
  EXPECT_FALSE(table_->versioned());
  EXPECT_EQ(table_->VisibleRowCount(), 5u);
}

TEST_F(SnapshotTest, RevertWritesAfterRestoresExactState) {
  const uint64_t checksum0 = table_->VisibleChecksum();

  WriteBatch first(&catalog_, table_);
  first.StageInsert({Value::Int64(6), Value::Double(60.0)});
  ASSERT_TRUE(first.Commit(nullptr).ok());
  const uint64_t checksum1 = table_->VisibleChecksum();

  WriteBatch second(&catalog_, table_);
  second.StageDelete(0);
  second.StageUpdate(3, {Value::Int64(3), Value::Double(-1.0)});
  ASSERT_TRUE(second.Commit(nullptr).ok());
  ASSERT_EQ(catalog_.data_epoch(), 2u);
  ASSERT_NE(table_->VisibleChecksum(), checksum1);

  catalog_.RevertWritesAfter(1);
  EXPECT_EQ(catalog_.data_epoch(), 1u);
  EXPECT_EQ(table_->VisibleChecksum(), checksum1);

  catalog_.RevertWritesAfter(0);
  EXPECT_EQ(catalog_.data_epoch(), 0u);
  EXPECT_EQ(table_->VisibleChecksum(), checksum0);
  EXPECT_EQ(table_->VisibleRowCount(), 5u);
}

TEST_F(SnapshotTest, VisibleChecksumTracksVisibleContentOnly) {
  const uint64_t before = table_->VisibleChecksum();

  // An update changes the visible content at latest but not at epoch 0.
  WriteBatch batch(&catalog_, table_);
  batch.StageUpdate(1, {Value::Int64(1), Value::Double(123.0)});
  ASSERT_TRUE(batch.Commit(nullptr).ok());
  EXPECT_NE(table_->VisibleChecksum(), before);
  EXPECT_EQ(table_->VisibleChecksum(0), before);
}

TEST_F(SnapshotTest, CommitRebuildsSecondaryIndexes) {
  ASSERT_TRUE(catalog_.BuildIndex("t", "id").ok());
  WriteBatch batch(&catalog_, table_);
  batch.StageInsert({Value::Int64(99), Value::Double(1.0)});
  ASSERT_TRUE(batch.Commit(nullptr).ok());
  const SortedIndex* index = catalog_.GetIndex("t", "id");
  ASSERT_NE(index, nullptr);
  // The index covers every physical row version, including the new one.
  EXPECT_EQ(index->num_entries(), table_->num_rows());
}

}  // namespace
}  // namespace storage
}  // namespace robustqo
