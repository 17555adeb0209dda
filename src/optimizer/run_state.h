// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Internal per-Optimize() state shared between optimizer.cc and
// star_strategies.cc. Not part of the public API.

#ifndef ROBUSTQO_OPTIMIZER_RUN_STATE_H_
#define ROBUSTQO_OPTIMIZER_RUN_STATE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "optimizer/optimizer.h"

namespace robustqo {
namespace opt {

struct Optimizer::RunState {
  const QuerySpec* query = nullptr;
  OptimizerOptions options;
  /// What every estimator call of this run receives: the T% hint, the
  /// run's sinks and its probe-count memo.
  stats::EstimationContext estimation;

  /// Base tables by query position.
  std::vector<const storage::Table*> tables;
  /// Columns each table's scan must output (join keys, aggregate inputs,
  /// grouping and select columns).
  std::vector<std::vector<std::string>> needed_columns;

  /// FK join edge between two query tables (a, b are query positions;
  /// fk.from_table is one of them).
  struct Edge {
    size_t a = 0;
    size_t b = 0;
    storage::ForeignKey fk;
  };
  std::vector<Edge> edges;

  /// Cardinality memo: (subset, tag) -> rows.
  std::map<std::pair<uint32_t, std::string>, double> estimate_cache;

  /// Metric pointers resolved once per Optimize() run (null when no
  /// registry is attached); incremented on the estimate hot path.
  obs::Counter* metric_estimates = nullptr;
  obs::Counter* metric_cache_hits = nullptr;
  obs::Counter* metric_candidates = nullptr;

  /// Table names for a subset bitmask.
  std::set<std::string> SubsetNames(uint32_t subset) const {
    std::set<std::string> names;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (subset & (1u << i)) names.insert(tables[i]->name());
    }
    return names;
  }

  /// Query position of `table` (SIZE_MAX if absent).
  size_t IndexOf(const std::string& table) const {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i]->name() == table) return i;
    }
    return SIZE_MAX;
  }

  /// The edge crossing the (s1, s2) partition, if any (index into edges,
  /// SIZE_MAX if none).
  size_t CrossingEdge(uint32_t s1, uint32_t s2) const {
    for (size_t e = 0; e < edges.size(); ++e) {
      const uint32_t abit = 1u << edges[e].a;
      const uint32_t bbit = 1u << edges[e].b;
      if (((s1 & abit) && (s2 & bbit)) || ((s2 & abit) && (s1 & bbit))) {
        return e;
      }
    }
    return SIZE_MAX;
  }
};

}  // namespace opt
}  // namespace robustqo

#endif  // ROBUSTQO_OPTIMIZER_RUN_STATE_H_
