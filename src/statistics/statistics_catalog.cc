#include "statistics/statistics_catalog.h"

#include <algorithm>
#include <functional>

#include "util/macros.h"

namespace robustqo {
namespace stats {

namespace {
std::string HistKey(const std::string& table, const std::string& column) {
  return table + "." + column;
}
}  // namespace

void StatisticsCatalog::BuildAllHistograms(size_t buckets) {
  for (const std::string& name : catalog_->TableNames()) {
    const storage::Table* table = catalog_->GetTable(name);
    for (const auto& col : table->schema().columns()) {
      if (col.type == storage::DataType::kString) continue;
      histograms_[HistKey(name, col.name)] =
          std::make_unique<EquiDepthHistogram>(*table, col.name, buckets);
    }
  }
  BumpEpoch();
}

void StatisticsCatalog::BuildAllSamples(const StatisticsConfig& config) {
  build_config_ = config;
  Rng rng(config.seed);
  for (const std::string& name : catalog_->TableNames()) {
    const storage::Table* table = catalog_->GetTable(name);
    Rng table_rng = rng.Fork();
    samples_[name] = std::make_unique<TableSample>(
        *table, config.sample_size, config.sampling_mode, &table_rng);
    Rng synopsis_rng = rng.Fork();
    synopses_[name] = std::make_unique<JoinSynopsis>(
        *catalog_, name, config.sample_size, config.sampling_mode,
        &synopsis_rng);
    // A full build is the maintenance baseline: restart the modification
    // counter, clear any pending flag.
    Maintenance& state = maintenance_[name];
    state.policy.RecordRebuild(table->VisibleRowCount());
    state.pending_rebuild = false;
  }
  BumpEpoch();
}

void StatisticsCatalog::ClearSamples() {
  samples_.clear();
  synopses_.clear();
  BumpEpoch();
}

void StatisticsCatalog::DropSynopsis(const std::string& root_table) {
  // Only the synopsis: the table's own sample stays, so the estimator can
  // degrade one tier (synopsis -> per-table sample) instead of two.
  synopses_.erase(root_table);
  BumpEpoch();
}

void StatisticsCatalog::ClearHistograms() {
  histograms_.clear();
  BumpEpoch();
}

const EquiDepthHistogram* StatisticsCatalog::GetHistogram(
    const std::string& table, const std::string& column) const {
  auto it = histograms_.find(HistKey(table, column));
  return it == histograms_.end() ? nullptr : it->second.get();
}

const TableSample* StatisticsCatalog::GetSample(
    const std::string& table) const {
  auto it = samples_.find(table);
  return it == samples_.end() ? nullptr : it->second.get();
}

const JoinSynopsis* StatisticsCatalog::GetSynopsis(
    const std::string& root_table) const {
  auto it = synopses_.find(root_table);
  return it == synopses_.end() ? nullptr : it->second.get();
}

const JoinSynopsis* StatisticsCatalog::FindCoveringSynopsis(
    const std::set<std::string>& tables) const {
  auto root = catalog_->FindRootTable(tables);
  if (!root.ok()) return nullptr;
  const JoinSynopsis* synopsis = GetSynopsis(root.value());
  if (synopsis == nullptr || !synopsis->Covers(tables)) return nullptr;
  return synopsis;
}

Result<const TableSample*> StatisticsCatalog::TryGetSample(
    const std::string& table) const {
  if (fault_ != nullptr) {
    Status injected = fault_->Check(fault::sites::kSampleRead);
    if (!injected.ok()) {
      return Status(injected.code(),
                    injected.message() + " reading sample for " + table);
    }
  }
  const TableSample* sample = GetSample(table);
  if (sample == nullptr) return Status::NotFound("no sample for " + table);
  return sample;
}

Result<const JoinSynopsis*> StatisticsCatalog::TryFindCoveringSynopsis(
    const std::set<std::string>& tables) const {
  if (fault_ != nullptr) {
    Status injected = fault_->Check(fault::sites::kSynopsisRead);
    if (!injected.ok()) return injected;
  }
  const JoinSynopsis* synopsis = FindCoveringSynopsis(tables);
  if (synopsis == nullptr) {
    return Status::NotFound("no covering join synopsis");
  }
  return synopsis;
}

void StatisticsCatalog::ObserveCommit(const std::string& table,
                                      uint64_t modifications) {
  if (catalog_->GetTable(table) == nullptr) return;
  Maintenance& state = maintenance_[table];
  state.policy.RecordModifications(modifications);
  if (state.policy.RebuildDue()) state.pending_rebuild = true;
}

void StatisticsCatalog::MarkPendingRebuild(const std::string& table) {
  if (catalog_->GetTable(table) == nullptr) return;
  maintenance_[table].pending_rebuild = true;
}

std::vector<std::string> StatisticsCatalog::TablesPendingRebuild() const {
  std::vector<std::string> tables;
  for (const auto& [table, state] : maintenance_) {
    if (state.pending_rebuild) tables.push_back(table);
  }
  return tables;  // maintenance_ is an ordered map: already sorted
}

Status StatisticsCatalog::RebuildTableStatistics(const std::string& table) {
  const storage::Table* t = catalog_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table " + table);

  for (const auto& col : t->schema().columns()) {
    if (col.type == storage::DataType::kString) continue;
    histograms_[HistKey(table, col.name)] = std::make_unique<EquiDepthHistogram>(
        *t, col.name, build_config_.histogram_buckets);
  }

  // Redraw the sample and every synopsis whose FK closure includes this
  // table. Folding the epoch into the seed makes successive rebuilds
  // independent draws while staying deterministic.
  const uint64_t rebuild_seed = build_config_.seed + epoch_ + 1;
  {
    Rng rng(rebuild_seed ^ std::hash<std::string>{}(table));
    samples_[table] = std::make_unique<TableSample>(
        *t, build_config_.sample_size, build_config_.sampling_mode, &rng);
  }
  std::vector<std::string> roots;
  for (const auto& [root, synopsis] : synopses_) {
    if (synopsis->covered_tables().count(table) > 0) roots.push_back(root);
  }
  std::sort(roots.begin(), roots.end());
  for (const std::string& root : roots) {
    Rng rng(rebuild_seed ^ std::hash<std::string>{}(root));
    synopses_[root] = std::make_unique<JoinSynopsis>(
        *catalog_, root, build_config_.sample_size,
        build_config_.sampling_mode, &rng);
  }

  Maintenance& state = maintenance_[table];
  state.policy.RecordRebuild(t->VisibleRowCount());
  state.pending_rebuild = false;
  BumpEpoch();
  return Status::OK();
}

uint64_t StatisticsCatalog::RebuildAllPending() {
  uint64_t rebuilt = 0;
  for (const std::string& table : TablesPendingRebuild()) {
    if (RebuildTableStatistics(table).ok()) ++rebuilt;
  }
  return rebuilt;
}

std::vector<StatisticsCatalog::MaintenanceEntry>
StatisticsCatalog::MaintenanceState() const {
  std::vector<MaintenanceEntry> entries;
  entries.reserve(maintenance_.size());
  for (const auto& [table, state] : maintenance_) {
    MaintenanceEntry entry;
    entry.table = table;
    entry.modifications = state.policy.modifications_since_rebuild();
    entry.pending_rebuild = state.pending_rebuild;
    entries.push_back(entry);
  }
  return entries;
}

size_t StatisticsCatalog::ApproximateSummaryBytes() const {
  size_t bytes = 0;
  for (const auto& [key, hist] : histograms_) {
    // value + row counter + distinct counter per bucket (8 + 4 + 4).
    bytes += hist->num_buckets() * 16;
  }
  for (const auto& [key, sample] : samples_) {
    bytes += static_cast<size_t>(sample->size()) *
             sample->rows().schema().num_columns() * 8;
  }
  for (const auto& [key, synopsis] : synopses_) {
    bytes += static_cast<size_t>(synopsis->size()) *
             synopsis->rows().schema().num_columns() * 8;
  }
  return bytes;
}

}  // namespace stats
}  // namespace robustqo
