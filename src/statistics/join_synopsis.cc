#include "statistics/join_synopsis.h"

#include <deque>
#include <unordered_map>

#include "util/macros.h"

namespace robustqo {
namespace stats {

using storage::Catalog;
using storage::ColumnDef;
using storage::ForeignKey;
using storage::Rid;
using storage::Schema;
using storage::Table;

namespace {

// PK value -> rid map for integer-physical primary keys.
std::unordered_map<int64_t, Rid> BuildPkLookup(const Table& table,
                                               const std::string& pk_column) {
  const storage::ColumnVector& col = table.column(pk_column);
  RQO_CHECK_MSG(storage::IsIntegerPhysical(col.type()),
                "join synopses require integer primary keys");
  std::unordered_map<int64_t, Rid> map;
  map.reserve(table.num_rows() * 2);
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    // Skip dead versions: an updated row leaves its old version physically
    // present with the same primary key. Should a write have introduced a
    // duplicate key (nothing enforces uniqueness on INSERT), the latest
    // visible version wins — degraded statistics beat a crash.
    if (!table.VisibleAt(rid)) continue;
    map[col.Int64At(rid)] = rid;
  }
  return map;
}

}  // namespace

JoinSynopsis::JoinSynopsis(const Catalog& catalog,
                           const std::string& root_table, size_t sample_size,
                           SamplingMode mode, Rng* rng) {
  const Table* root = catalog.GetTable(root_table);
  RQO_CHECK_MSG(root != nullptr, ("no table " + root_table).c_str());
  root_table_ = root_table;
  root_row_count_ = root->VisibleRowCount();
  covered_tables_.insert(root_table);

  // BFS over the FK closure; record the join steps in visit order so each
  // step's source table is already materialized when we chase it.
  struct JoinStep {
    ForeignKey fk;
    const Table* target;
  };
  std::vector<JoinStep> steps;
  std::deque<std::string> frontier{root_table};
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    for (const ForeignKey& fk : catalog.ForeignKeysFrom(current)) {
      if (covered_tables_.count(fk.to_table) > 0) continue;  // acyclic guard
      const Table* target = catalog.GetTable(fk.to_table);
      RQO_CHECK(target != nullptr);
      covered_tables_.insert(fk.to_table);
      steps.push_back({fk, target});
      frontier.push_back(fk.to_table);
    }
  }

  // Wide schema: root columns then each joined table's columns.
  std::vector<ColumnDef> wide_columns = root->schema().columns();
  for (const JoinStep& step : steps) {
    const auto& cols = step.target->schema().columns();
    wide_columns.insert(wide_columns.end(), cols.begin(), cols.end());
  }
  rows_ = std::make_unique<Table>(root_table + "$synopsis",
                                  Schema(wide_columns));

  if (root_row_count_ == 0) return;

  // PK lookup per joined table.
  std::vector<std::unordered_map<int64_t, Rid>> pk_lookups;
  pk_lookups.reserve(steps.size());
  for (const JoinStep& step : steps) {
    pk_lookups.push_back(BuildPkLookup(*step.target, step.fk.to_column));
  }

  // Sample the visible root rows, then chase every FK for each sampled
  // tuple. Unversioned roots keep the direct-RID draw.
  std::vector<Rid> visible;
  if (root->versioned()) {
    visible.reserve(static_cast<size_t>(root_row_count_));
    for (Rid r = 0; r < root->num_rows(); ++r) {
      if (root->VisibleAt(r)) visible.push_back(r);
    }
  }
  const uint64_t population =
      root->versioned() ? visible.size() : root->num_rows();
  std::vector<uint64_t> picks;
  if (mode == SamplingMode::kWithReplacement) {
    picks = rng->SampleWithReplacement(population, sample_size);
  } else {
    const size_t k =
        std::min<size_t>(sample_size, static_cast<size_t>(population));
    picks = rng->SampleWithoutReplacement(population, k);
  }

  rows_->Reserve(picks.size());
  for (uint64_t pick : picks) {
    const Rid root_rid = root->versioned() ? visible[pick] : pick;
    std::vector<storage::Value> wide_row = root->RowAt(root_rid);
    // rid of each already-joined table for this tuple.
    std::unordered_map<std::string, Rid> resolved{{root_table, root_rid}};
    bool complete = true;
    for (size_t s = 0; s < steps.size(); ++s) {
      const JoinStep& step = steps[s];
      const Table* from =
          step.fk.from_table == root_table
              ? root
              : catalog.GetTable(step.fk.from_table);
      auto from_rid_it = resolved.find(step.fk.from_table);
      RQO_CHECK_MSG(from_rid_it != resolved.end(),
                    "FK source not yet materialized (BFS order violated)");
      const int64_t fk_value =
          from->column(step.fk.from_column).Int64At(from_rid_it->second);
      auto hit = pk_lookups[s].find(fk_value);
      if (hit == pk_lookups[s].end()) {
        // Dangling foreign key — a DELETE removed the referenced parent
        // (nothing enforces referential integrity on writes). Drop the
        // sampled tuple rather than crash; the synopsis loses one sample.
        complete = false;
        break;
      }
      const Rid target_rid = hit->second;
      resolved.emplace(step.fk.to_table, target_rid);
      std::vector<storage::Value> target_row =
          step.target->RowAt(target_rid);
      wide_row.insert(wide_row.end(), target_row.begin(), target_row.end());
    }
    if (complete) rows_->AppendRow(wide_row);
  }
}

bool JoinSynopsis::Covers(const std::set<std::string>& tables) const {
  if (tables.count(root_table_) == 0) return false;
  for (const std::string& t : tables) {
    if (covered_tables_.count(t) == 0) return false;
  }
  return true;
}

}  // namespace stats
}  // namespace robustqo
