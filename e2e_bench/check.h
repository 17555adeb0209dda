// Correctness checks, run after the timed region.
//
// Every completed read is compared with the same statement planned by the
// histogram/AVI estimator (the paper's baseline, which often picks another
// plan) and executed at the snapshot the read saw. Writes are reconciled
// by row counts: each table's final visible rows must equal its initial
// rows plus the inserts minus the deletes the DmlResults report.

#ifndef ROBUSTQO_E2E_BENCH_CHECK_H_
#define ROBUSTQO_E2E_BENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/dml.h"
#include "storage/table.h"

namespace robustqo {
namespace e2e {

/// One completed read of a run.
struct ReadRecord {
  uint64_t request_id = 0;
  std::string sql;
  /// Data epoch the read was pinned to.
  uint64_t snapshot = 0;
  std::string plan_label;
  std::shared_ptr<const storage::Table> rows;
};

/// Positional comparison; doubles agree to a relative 1e-6 (plans may sum
/// in different orders). On a mismatch `why` says where.
bool SameRows(const storage::Table& a, const storage::Table& b,
              std::string* why);

struct CheckReport {
  uint64_t checked = 0;       ///< reads compared with a reference
  uint64_t references = 0;    ///< reference executions, one per (SQL, snapshot)
  uint64_t plans_differ = 0;  ///< references whose plan differs from the served one
  uint64_t mismatches = 0;    ///< reads that disagreed, or whose reference failed
  std::string first_error;

  void Fail(const std::string& error) {
    ++mismatches;
    if (first_error.empty()) first_error = error;
  }
};

/// Compares every read in `reads` with the histogram-planned reference on
/// `db` (which must hold every snapshot the reads name).
void CheckAgainstHistogram(core::Database* db,
                           const std::vector<ReadRecord>& reads,
                           CheckReport* report);

/// Per-table row counts visible at the latest snapshot.
std::map<std::string, uint64_t> VisibleRowCounts(const core::Database& db);

/// Adds one committed write to the expected per-table row counts.
void ApplyDml(const std::string& table, const exec::DmlResult& result,
              std::map<std::string, int64_t>* delta);

/// Checks `db`'s final counts against `initial` plus `delta`.
void ReconcileRowCounts(const core::Database& db,
                        const std::map<std::string, uint64_t>& initial,
                        const std::map<std::string, int64_t>& delta,
                        CheckReport* report);

}  // namespace e2e
}  // namespace robustqo

#endif  // ROBUSTQO_E2E_BENCH_CHECK_H_
