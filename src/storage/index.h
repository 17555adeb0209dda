// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Nonclustered secondary index over a single column, modeled as a sorted
// (key, rid) array — the access-path behaviour (logarithmic seek + ordered
// leaf scan + RID list output) matches a B+-tree; only the update cost
// differs, which is irrelevant for the read-only experiments here.

#ifndef ROBUSTQO_STORAGE_INDEX_H_
#define ROBUSTQO_STORAGE_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "storage/table.h"

namespace robustqo {
namespace storage {

/// A sorted secondary index on one integer-physical or double column.
/// String columns are not indexable in this build (the paper's experiments
/// index dates and integer keys only).
class SortedIndex {
 public:
  /// Builds the index over `table.column(column_name)`.
  SortedIndex(const Table& table, std::string column_name);

  const std::string& column_name() const { return column_name_; }
  const std::string& table_name() const { return table_name_; }
  uint64_t num_entries() const { return keys_.size(); }

  /// RIDs of rows with key in [lo, hi] (inclusive; pass nullopt for an open
  /// bound), in key order: a view of the index's own RID array, valid until
  /// the index is rebuilt. A NaN key lies in no range, open or not.
  /// `entries_scanned` (if non-null) receives the number of index leaf
  /// entries touched — the execution cost driver.
  std::span<const Rid> RangeLookup(std::optional<double> lo,
                                   std::optional<double> hi,
                                   uint64_t* entries_scanned = nullptr) const;

  /// RIDs of rows with key exactly `key`, viewed as above.
  std::span<const Rid> EqualLookup(double key,
                                   uint64_t* entries_scanned = nullptr) const;

  /// Number of entries with key in [lo, hi] without materializing RIDs
  /// (used by the optimizer's cost formulas when it wants exact counts in
  /// tests; the estimator itself uses statistics, never the index).
  uint64_t CountRange(std::optional<double> lo, std::optional<double> hi) const;

 private:
  // Position of the first entry with key >= x / > x.
  size_t LowerBound(double x) const;
  size_t UpperBound(double x) const;

  std::string table_name_;
  std::string column_name_;
  std::vector<double> keys_;  // sorted, then any NaN keys
  std::vector<Rid> rids_;     // parallel to keys_
  size_t num_ordered_ = 0;    // keys_ before the NaN tail
};

}  // namespace storage
}  // namespace robustqo

#endif  // ROBUSTQO_STORAGE_INDEX_H_
