#include "storage/index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace robustqo {
namespace storage {
namespace {

Table MakeTable(const std::vector<int64_t>& keys) {
  Table t("t", Schema({{"k", DataType::kInt64}}));
  for (int64_t k : keys) t.AppendRow({Value::Int64(k)});
  return t;
}

TEST(SortedIndexTest, EqualLookupFindsAllDuplicates) {
  Table t = MakeTable({5, 3, 5, 1, 5, 2});
  SortedIndex index(t, "k");
  uint64_t entries = 0;
  const std::span<const Rid> found = index.EqualLookup(5.0, &entries);
  std::vector<Rid> rids(found.begin(), found.end());
  EXPECT_EQ(entries, 3u);
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<Rid>{0, 2, 4}));
}

TEST(SortedIndexTest, EqualLookupMiss) {
  Table t = MakeTable({1, 2, 3});
  SortedIndex index(t, "k");
  uint64_t entries = 9;
  EXPECT_TRUE(index.EqualLookup(7.0, &entries).empty());
  EXPECT_EQ(entries, 0u);
}

TEST(SortedIndexTest, RangeLookupInclusive) {
  Table t = MakeTable({10, 20, 30, 40, 50});
  SortedIndex index(t, "k");
  const std::span<const Rid> found = index.RangeLookup(20.0, 40.0);
  std::vector<Rid> rids(found.begin(), found.end());
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(rids, (std::vector<Rid>{1, 2, 3}));
}

TEST(SortedIndexTest, OpenBounds) {
  Table t = MakeTable({10, 20, 30});
  SortedIndex index(t, "k");
  EXPECT_EQ(index.RangeLookup(std::nullopt, 20.0).size(), 2u);
  EXPECT_EQ(index.RangeLookup(20.0, std::nullopt).size(), 2u);
  EXPECT_EQ(index.RangeLookup(std::nullopt, std::nullopt).size(), 3u);
}

TEST(SortedIndexTest, EmptyRange) {
  Table t = MakeTable({10, 20, 30});
  SortedIndex index(t, "k");
  EXPECT_TRUE(index.RangeLookup(21.0, 29.0).empty());
  EXPECT_TRUE(index.RangeLookup(40.0, 50.0).empty());
  EXPECT_TRUE(index.RangeLookup(5.0, 9.0).empty());
}

TEST(SortedIndexTest, RidsReturnedInKeyOrder) {
  Table t = MakeTable({30, 10, 20});
  SortedIndex index(t, "k");
  const std::span<const Rid> found =
      index.RangeLookup(std::nullopt, std::nullopt);
  const std::vector<Rid> rids(found.begin(), found.end());
  // Key order 10, 20, 30 -> rids 1, 2, 0.
  EXPECT_EQ(rids, (std::vector<Rid>{1, 2, 0}));
}

TEST(SortedIndexTest, CountRangeMatchesLookupSize) {
  Rng rng(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.NextInRange(0, 99));
  Table t = MakeTable(keys);
  SortedIndex index(t, "k");
  for (int lo = 0; lo < 100; lo += 7) {
    const double hi = lo + 12;
    EXPECT_EQ(index.CountRange(lo, hi), index.RangeLookup(lo, hi).size());
  }
}

TEST(SortedIndexTest, CountMatchesBruteForce) {
  Rng rng(6);
  std::vector<int64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.NextInRange(-50, 50));
  Table t = MakeTable(keys);
  SortedIndex index(t, "k");
  const double lo = -10;
  const double hi = 10;
  uint64_t expected = 0;
  for (int64_t k : keys) {
    if (k >= lo && k <= hi) ++expected;
  }
  EXPECT_EQ(index.CountRange(lo, hi), expected);
}

TEST(SortedIndexTest, DoubleColumn) {
  Table t("t", Schema({{"x", DataType::kDouble}}));
  for (double v : {0.5, 1.5, 2.5, 3.5}) t.AppendRow({Value::Double(v)});
  SortedIndex index(t, "x");
  EXPECT_EQ(index.RangeLookup(1.0, 3.0).size(), 2u);
}

TEST(SortedIndexTest, MetadataAccessors) {
  Table t = MakeTable({1, 2});
  SortedIndex index(t, "k");
  EXPECT_EQ(index.table_name(), "t");
  EXPECT_EQ(index.column_name(), "k");
  EXPECT_EQ(index.num_entries(), 2u);
}

TEST(SortedIndexTest, EntriesScannedEqualsResultSizeForRange) {
  Table t = MakeTable({1, 2, 2, 3, 4});
  SortedIndex index(t, "k");
  uint64_t entries = 0;
  auto rids = index.RangeLookup(2.0, 3.0, &entries);
  EXPECT_EQ(entries, rids.size());
  EXPECT_EQ(entries, 3u);
}

}  // namespace
}  // namespace storage
}  // namespace robustqo
