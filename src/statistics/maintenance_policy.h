// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The UPDATE STATISTICS trigger. The paper's precomputation phase runs
// "periodically whenever a sufficient number of database modifications
// have occurred" (Section 3.2); SampleMaintenancePolicy counts those
// modifications and decides when a full rebuild (which also refreshes
// join synopses) is due.

#ifndef ROBUSTQO_STATISTICS_MAINTENANCE_POLICY_H_
#define ROBUSTQO_STATISTICS_MAINTENANCE_POLICY_H_

#include <cstdint>

namespace robustqo {
namespace stats {

/// Decides when summary statistics are stale enough for a rebuild —
/// the UPDATE STATISTICS trigger heuristic.
class SampleMaintenancePolicy {
 public:
  /// Rebuild once modifications exceed `rebuild_fraction` of the table
  /// size at the last rebuild (default 20%, a common DBMS heuristic).
  explicit SampleMaintenancePolicy(double rebuild_fraction = 0.20)
      : rebuild_fraction_(rebuild_fraction) {}

  /// Records that statistics were (re)built over `table_rows` rows.
  void RecordRebuild(uint64_t table_rows) {
    rows_at_rebuild_ = table_rows;
    modifications_ = 0;
  }

  /// Records `count` inserted/updated/deleted rows.
  void RecordModifications(uint64_t count) { modifications_ += count; }

  /// True when a rebuild is due.
  bool RebuildDue() const {
    if (rows_at_rebuild_ == 0) return true;  // never built
    return static_cast<double>(modifications_) >=
           rebuild_fraction_ * static_cast<double>(rows_at_rebuild_);
  }

  uint64_t modifications_since_rebuild() const { return modifications_; }

 private:
  double rebuild_fraction_;
  uint64_t rows_at_rebuild_ = 0;
  uint64_t modifications_ = 0;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_MAINTENANCE_POLICY_H_
