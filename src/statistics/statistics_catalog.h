// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// StatisticsCatalog: the summary-statistics store a DBMS maintains —
// per-column histograms, per-table uniform samples, and join synopses. The
// Build* functions are the UPDATE STATISTICS analogue (paper Section 3.2,
// precomputation phase).

#ifndef ROBUSTQO_STATISTICS_STATISTICS_CATALOG_H_
#define ROBUSTQO_STATISTICS_STATISTICS_CATALOG_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_injector.h"
#include "statistics/histogram.h"
#include "statistics/join_synopsis.h"
#include "statistics/maintenance_policy.h"
#include "statistics/sample.h"
#include "storage/catalog.h"
#include "util/rng.h"
#include "util/status.h"

namespace robustqo {
namespace stats {

/// Knobs for statistics construction.
struct StatisticsConfig {
  /// Tuples per sample / join synopsis (the paper uses 500 by default).
  size_t sample_size = 500;
  /// Buckets per histogram (the paper's baseline system uses ~250).
  size_t histogram_buckets = 250;
  /// Sampling model; with-replacement matches the Bayesian analysis.
  SamplingMode sampling_mode = SamplingMode::kWithReplacement;
  /// Seed for all sample draws; vary to repeat an experiment over
  /// different random samples (the paper averages over 12-20 draws).
  uint64_t seed = 42;
};

/// Owns all summary statistics for one database.
class StatisticsCatalog {
 public:
  explicit StatisticsCatalog(const storage::Catalog* catalog)
      : catalog_(catalog) {}
  StatisticsCatalog(const StatisticsCatalog&) = delete;
  StatisticsCatalog& operator=(const StatisticsCatalog&) = delete;

  const storage::Catalog& catalog() const { return *catalog_; }

  /// Builds a histogram on every numeric column of every table.
  void BuildAllHistograms(size_t buckets = 250);

  /// Builds per-table samples and per-root join synopses for every table,
  /// using `config`. Rebuilding with a different seed redraws every sample.
  void BuildAllSamples(const StatisticsConfig& config);

  /// Drops every sample and synopsis (e.g. to model the no-statistics
  /// fallbacks of Section 3.5).
  void ClearSamples();
  /// Drops the synopsis rooted at one table (per-table samples stay).
  void DropSynopsis(const std::string& root_table);
  /// Drops all histograms.
  void ClearHistograms();

  /// Lookup; nullptr when absent.
  const EquiDepthHistogram* GetHistogram(const std::string& table,
                                         const std::string& column) const;
  const TableSample* GetSample(const std::string& table) const;
  const JoinSynopsis* GetSynopsis(const std::string& root_table) const;

  /// The synopsis that can answer an SPJ expression over `tables` (rooted
  /// at the FK-root of the set); nullptr if none was built.
  const JoinSynopsis* FindCoveringSynopsis(
      const std::set<std::string>& tables) const;

  /// Fault-aware accessors: the statistics-store reads that can fail
  /// transiently in a real system. They probe the injector's sample-read /
  /// synopsis-read sites (kUnavailable when a fault fires) and report
  /// genuinely absent statistics as kNotFound — so callers can distinguish
  /// "retry may help" from "degrade now".
  Result<const TableSample*> TryGetSample(const std::string& table) const;
  Result<const JoinSynopsis*> TryFindCoveringSynopsis(
      const std::set<std::string>& tables) const;

  /// Installs the fault injector probed by the Try* accessors (borrowed,
  /// nullable = reads never fail).
  void SetFaultInjector(fault::FaultInjector* fault) { fault_ = fault; }

  /// Total bytes of summary data held, approximated as 8 bytes per numeric
  /// cell (for the storage-parity discussion of Section 6.1).
  size_t ApproximateSummaryBytes() const;

  /// Monotonically increasing statistics epoch. Every mutation of the
  /// summary store — histogram/sample/synopsis builds and drops — bumps
  /// it, so any consumer that captured statistics-derived state (most
  /// importantly the server's plan cache, which keys entries by epoch)
  /// can detect staleness with one integer compare. Exported as the
  /// `stats.epoch` gauge; never decreases, never resets.
  uint64_t epoch() const { return epoch_; }

  // --- Online maintenance (paper Section 3.2's "periodically whenever a
  // sufficient number of database modifications have occurred", made
  // continuous) ---------------------------------------------------------
  //
  // Committed DML feeds a per-table SampleMaintenancePolicy; once
  // modifications pass the policy's threshold (or the quality monitor
  // flags drift) the table is marked pending, and the next rebuild
  // redraws its histograms/sample/synopses and bumps the statistics
  // epoch — which is what lazily invalidates cached plans.

  /// Counts `modifications` rows of one committed batch against `table`
  /// (inserted + deleted row versions, so an update counts two) and marks
  /// the table pending once the policy's threshold is reached. Does NOT
  /// bump the statistics epoch (only a rebuild changes estimates).
  void ObserveCommit(const std::string& table, uint64_t modifications);

  /// Marks `table` stale regardless of modification volume (the quality
  /// monitor's drift flag routes here).
  void MarkPendingRebuild(const std::string& table);

  /// Tables currently flagged for rebuild (sorted).
  std::vector<std::string> TablesPendingRebuild() const;
  bool RebuildPending() const { return !TablesPendingRebuild().empty(); }

  /// Rebuilds histograms, the table sample, and every synopsis covering
  /// `table` from current (visible) data; resets the table's maintenance
  /// state and bumps the statistics epoch.
  Status RebuildTableStatistics(const std::string& table);

  /// Rebuilds every pending table; returns how many were rebuilt.
  uint64_t RebuildAllPending();

  /// Per-table maintenance snapshot for the shell's `.epoch` view.
  struct MaintenanceEntry {
    std::string table;
    uint64_t modifications = 0;  ///< rows touched since last rebuild
    bool pending_rebuild = false;
  };
  std::vector<MaintenanceEntry> MaintenanceState() const;

 private:
  void BumpEpoch() { ++epoch_; }

  struct Maintenance {
    SampleMaintenancePolicy policy;
    bool pending_rebuild = false;
  };

  const storage::Catalog* catalog_;
  uint64_t epoch_ = 0;
  fault::FaultInjector* fault_ = nullptr;
  std::unordered_map<std::string, std::unique_ptr<EquiDepthHistogram>>
      histograms_;  // "table.column"
  std::unordered_map<std::string, std::unique_ptr<TableSample>> samples_;
  std::unordered_map<std::string, std::unique_ptr<JoinSynopsis>> synopses_;
  std::map<std::string, Maintenance> maintenance_;
  /// What background rebuilds use: the last BuildAllSamples config.
  StatisticsConfig build_config_;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_STATISTICS_CATALOG_H_
