#include "optimizer/optimizer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "exec/agg_ops.h"
#include "exec/sort_op.h"
#include "expr/analysis.h"
#include "optimizer/run_state.h"
#include "perf/caches.h"
#include "statistics/magic.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace opt {

using exec::CostModel;
using exec::OperatorPtr;

namespace {

// Sargable conjunct with its extracted range.
struct SargableConjunct {
  expr::ExprPtr conjunct;
  expr::ColumnRange range;
};

std::vector<SargableConjunct> IndexedSargables(
    const storage::Catalog& catalog, const std::string& table,
    const expr::ExprPtr& predicate) {
  std::vector<SargableConjunct> out;
  if (predicate == nullptr) return out;
  for (const auto& conjunct : expr::SplitConjuncts(predicate)) {
    auto range = expr::TryExtractColumnRange(conjunct);
    if (range.has_value() && catalog.HasIndex(table, range->column)) {
      out.push_back({conjunct, *range});
    }
  }
  return out;
}

}  // namespace

Optimizer::Optimizer(const storage::Catalog* catalog,
                     stats::CardinalityEstimator* estimator,
                     CostModel cost_model)
    : catalog_(catalog),
      estimator_(estimator),
      cost_model_(cost_model) {
  RQO_CHECK(catalog != nullptr && estimator != nullptr);
  memo_.cost_model = cost_model;
}

double Optimizer::EstimateRows(RunState* run, uint32_t subset,
                               const std::string& tag,
                               const expr::ExprPtr* predicate,
                               uint32_t predicate_subset) {
  ++metrics_.estimator_calls;
  if (run->metric_estimates != nullptr) run->metric_estimates->Increment();
  std::pair<uint32_t, std::string> key(subset, tag);
  if (run->options.enable_estimate_memo) {
    auto it = run->estimate_cache.find(key);
    if (it != run->estimate_cache.end()) {
      if (run->metric_cache_hits != nullptr) {
        run->metric_cache_hits->Increment();
      }
      return it->second;
    }
  }
  ++metrics_.estimator_misses;

  stats::CardinalityRequest request;
  request.tables = run->SubsetNames(subset);
  request.predicate =
      predicate != nullptr
          ? *predicate
          : run->query->CombinedPredicate(
                predicate_subset != 0 ? run->SubsetNames(predicate_subset)
                                      : request.tables);
  Result<double> rows = estimator_->EstimateRows(request, run->estimation);
  double value;
  if (rows.ok()) {
    value = std::max(0.0, rows.value());
  } else {
    // Last-resort guess: largest table in the subset, scaled by the magic
    // selectivity once per predicate conjunct.
    double base = 1.0;
    for (const std::string& name : request.tables) {
      base = std::max(
          base, static_cast<double>(catalog_->GetTable(name)->num_rows()));
    }
    double sel = 1.0;
    if (request.predicate != nullptr) {
      for (size_t i = 0; i < expr::SplitConjuncts(request.predicate).size();
           ++i) {
        sel *= stats::kMagicUnknownSelectivity;
      }
    }
    value = base * sel;
  }
  if (run->options.tracer != nullptr) {
    std::vector<std::string> names(request.tables.begin(),
                                   request.tables.end());
    run->options.tracer->Event(
        "optimizer", "estimate",
        {{"tables", StrJoin(names, ",")},
         {"tag", tag},
         {"fallback", rows.ok() ? "false" : "true"},
         {"est_rows", obs::AttrF(value)}});
  }
  run->estimate_cache.emplace(std::move(key), value);
  return value;
}

void Optimizer::AddAccessPaths(RunState* run, size_t table_idx,
                               std::vector<PlanEntry>* out) {
  const storage::Table* table = run->tables[table_idx];
  const std::string& name = table->name();
  const std::vector<std::string>& columns = run->needed_columns[table_idx];
  const uint32_t bit = 1u << table_idx;
  const double est_rows = EstimateRows(run, bit);

  PlanPayload scan;
  scan.table = name;
  scan.predicate = run->query->tables[table_idx].predicate;
  scan.columns = columns;
  scan.table_rows = static_cast<double>(table->num_rows());
  auto in_projection = [&columns](const std::string& col) {
    return std::find(columns.begin(), columns.end(), col) != columns.end();
  };
  auto add = [&](PlanMethod method, PlanPayload payload,
                 const std::string& sort_order) {
    PlanEntry cand{method, false, false, memo_.AddPayload(std::move(payload)),
                   {}, {}, 0.0, est_rows, sort_order};
    cand.cost = memo_.Cost(cand);
    out->push_back(std::move(cand));
    ++metrics_.candidates;
  };

  // 1) Sequential scan — the selectivity-insensitive plan.
  const std::string cluster = catalog_->ClusteringColumnOf(name);
  add(PlanMethod::kSeqScan, scan, in_projection(cluster) ? cluster : "");

  const std::vector<SargableConjunct> sargables =
      IndexedSargables(*catalog_, name, scan.predicate);
  auto conj_rows = [&](const expr::ExprPtr& conjunct) {
    return EstimateRows(run, bit, "conj:" + conjunct->ToString(), &conjunct);
  };

  // 2) Single-index range scans.
  for (const SargableConjunct& s : sargables) {
    PlanPayload payload = scan;
    payload.ranges = {{s.range.column, s.range.lo, s.range.hi}};
    payload.range_rows = {conj_rows(s.conjunct)};
    add(PlanMethod::kIndexScan, std::move(payload),
        in_projection(s.range.column) ? s.range.column : "");
  }

  // 3) Index intersections over every subset of >= 2 sargable indexes.
  if (run->options.enable_index_intersection && sargables.size() >= 2) {
    const uint32_t limit = 1u << sargables.size();
    for (uint32_t mask = 0; mask < limit; ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      PlanPayload payload = scan;
      std::vector<expr::ExprPtr> conjuncts;
      for (size_t i = 0; i < sargables.size(); ++i) {
        if (!(mask & (1u << i))) continue;
        const SargableConjunct& s = sargables[i];
        payload.ranges.push_back({s.range.column, s.range.lo, s.range.hi});
        payload.range_rows.push_back(conj_rows(s.conjunct));
        conjuncts.push_back(s.conjunct);
      }
      // Survivors of the RID intersection: the *joint* selectivity of the
      // chosen conjuncts — this estimate is where AVI goes wrong on
      // correlated data and where the robust estimator shines.
      payload.fetches = conj_rows(expr::And(conjuncts));
      add(PlanMethod::kIndexIntersection, std::move(payload), "");
    }
  }
}

void Optimizer::AddJoinCandidates(RunState* run, uint32_t s1, uint32_t s2,
                                  std::vector<PlanEntry>* out) {
  const size_t edge_idx = run->CrossingEdge(s1, s2);
  if (edge_idx == SIZE_MAX) return;
  const RunState::Edge& edge = run->edges[edge_idx];
  // Join columns on each side of the partition.
  const bool from_in_s1 =
      (s1 & (1u << run->IndexOf(edge.fk.from_table))) != 0;
  const std::string& key1 =
      from_in_s1 ? edge.fk.from_column : edge.fk.to_column;
  const std::string& key2 =
      from_in_s1 ? edge.fk.to_column : edge.fk.from_column;

  const uint32_t joined = s1 | s2;
  const double out_rows = EstimateRows(run, joined);
  auto add = [&](PlanMethod method, uint32_t payload, PlanRef left,
                 PlanRef right, const std::string& sort_order,
                 bool sort_left = false, bool sort_right = false) {
    PlanEntry cand{method, sort_left, sort_right, payload, left, right, 0.0,
                   out_rows, sort_order};
    cand.cost = memo_.Cost(cand);
    out->push_back(std::move(cand));
    ++metrics_.candidates;
  };
  PlanPayload keys;
  keys.left_key = key1;
  keys.right_key = key2;
  const uint32_t forward = memo_.AddPayload(keys);
  std::swap(keys.left_key, keys.right_key);
  const uint32_t backward = memo_.AddPayload(std::move(keys));
  for (uint32_t i = 0; i < memo_.lists[s1].size(); ++i) {
    for (uint32_t j = 0; j < memo_.lists[s2].size(); ++j) {
      const PlanRef lref{s1, i};
      const PlanRef rref{s2, j};
      const std::string& l_order = memo_.at(lref).sort_order;
      const std::string& r_order = memo_.at(rref).sort_order;
      // Hash join, both build directions; the probe side's order is
      // preserved.
      if (run->options.enable_hash_join) {
        add(PlanMethod::kHashJoin, forward, lref, rref, r_order);
        add(PlanMethod::kHashJoin, backward, rref, lref, l_order);
      }
      // Merge join: directly when both inputs arrive sorted on the join
      // keys; otherwise (optionally) below explicit Sort operators.
      const bool sort_l = l_order != key1;
      const bool sort_r = r_order != key2;
      if (run->options.enable_merge_join &&
          ((!sort_l && !sort_r) || run->options.enable_sort_for_merge)) {
        add(PlanMethod::kMergeJoin, forward, lref, rref, key1, sort_l,
            sort_r);
      }
    }
  }

  // Indexed nested-loop join: inner side must be a single base table with
  // an index on its join column. Try each orientation.
  if (run->options.enable_index_nested_loop) {
    struct Orientation {
      uint32_t outer_set;
      uint32_t inner_set;
      const std::string& outer_key;
      const std::string& inner_key;
    };
    const Orientation orientations[2] = {
        {s1, s2, key1, key2},
        {s2, s1, key2, key1},
    };
    for (const Orientation& o : orientations) {
      if (__builtin_popcount(o.inner_set) != 1) continue;
      const size_t inner_idx =
          static_cast<size_t>(__builtin_ctz(o.inner_set));
      const std::string& inner_name = run->tables[inner_idx]->name();
      if (!catalog_->HasIndex(inner_name, o.inner_key)) continue;

      PlanPayload payload;
      payload.table = inner_name;
      payload.predicate = run->query->tables[inner_idx].predicate;
      payload.left_key = o.outer_key;
      payload.right_key = o.inner_key;
      // Matching index entries before the inner predicate: the join of the
      // outer subset's predicates with the bare inner table. `joined` and
      // the inner table fix the outer subset, so they key the estimate.
      payload.fetches = EstimateRows(run, joined, "noinner:" + inner_name,
                                     nullptr, o.outer_set);
      const uint32_t payload_idx = memo_.AddPayload(std::move(payload));
      for (uint32_t i = 0; i < memo_.lists[o.outer_set].size(); ++i) {
        const PlanRef outer{o.outer_set, i};
        add(PlanMethod::kIndexNestedLoop, payload_idx, outer, {},
            memo_.at(outer).sort_order);
      }
    }
  }
}

void Optimizer::PruneCandidates(const PlanMemo& memo,
                                std::vector<PlanEntry>* candidates) {
  // Pinned order: lower cost first, and an exact cost tie goes to the
  // lexicographically smaller label — the survivor (and the provenance
  // top-K built from the surviving order) must never depend on candidate
  // generation order. Labels are derived only for exact ties.
  auto before = [&memo](const PlanEntry& a, const PlanEntry& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    const int by_label = memo.Label(a).compare(memo.Label(b));
    return by_label != 0 ? by_label < 0 : a.sort_order < b.sort_order;
  };
  // Cheapest per sort order: sorted outputs are retained even when an
  // unsorted one is cheaper, because merge join may exploit them.
  std::vector<PlanEntry> best;
  for (PlanEntry& cand : *candidates) {
    auto it = best.begin();
    while (it != best.end() && it->sort_order != cand.sort_order) ++it;
    if (it == best.end()) {
      best.push_back(std::move(cand));
    } else if (before(cand, *it)) {
      *it = std::move(cand);
    }
  }
  std::sort(best.begin(), best.end(), before);
  *candidates = std::move(best);
}

const std::vector<double>& Optimizer::SensitivityGrid() {
  static const std::vector<double> kGrid = {0.10, 0.25, 0.50,
                                            0.75, 0.90, 0.95};
  return kGrid;
}

obs::PlanSensitivity Optimizer::CaptureSensitivity(RunState* run,
                                                   uint32_t full_subset) {
  const std::vector<PlanEntry>& finalists = memo_.lists[full_subset];
  obs::PlanSensitivity sensitivity;
  sensitivity.captured = true;
  sensitivity.grid = SensitivityGrid();
  if (!finalists.empty()) sensitivity.plan_label = memo_.Label(finalists[0]);

  stats::CardinalityRequest request;
  request.tables = run->SubsetNames(full_subset);
  request.predicate = run->query->CombinedPredicate(request.tables);
  stats::PosteriorQuantiles posterior = estimator_->EstimatePosteriorQuantiles(
      request, sensitivity.grid, run->estimation);
  sensitivity.threshold = posterior.threshold;
  if (posterior.status.code() == StatusCode::kUnsupported) {
    sensitivity.unavailable_reason = "estimator has no posterior";
  } else if (request.predicate == nullptr) {
    sensitivity.unavailable_reason = "query has no predicate";
  } else if (!posterior.status.ok()) {
    sensitivity.unavailable_reason = "no covering posterior";
  } else if (posterior.at_threshold > 0.0) {
    sensitivity.available = true;
    sensitivity.selectivity = std::move(posterior.selectivity);
  } else {
    sensitivity.unavailable_reason = "degenerate threshold selectivity";
  }

  if (sensitivity.available) {
    const size_t keep =
        std::min(finalists.size(), run->options.provenance_top_k + 1);
    for (size_t c = 0; c < keep; ++c) {
      const PlanEntry& cand = finalists[c];
      obs::CandidateCurve curve;
      curve.label = memo_.Label(cand);
      curve.cost = cand.cost;
      curve.rows = cand.rows;
      curve.curve_available = cand.method != PlanMethod::kStar;
      for (double selectivity : sensitivity.selectivity) {
        const double ratio = selectivity / posterior.at_threshold;
        curve.cost_at.push_back(memo_.Recost(
            {full_subset, static_cast<uint32_t>(c)}, ratio));
      }
      sensitivity.candidates.push_back(std::move(curve));
    }
  }
  obs::FinalizeSensitivity(&sensitivity);
  return sensitivity;
}

Result<PlannedQuery> Optimizer::Optimize(const QuerySpec& query,
                                         const OptimizerOptions& options) {
  metrics_ = Metrics();
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  // Exhaustive subset DP enumerates O(3^n) partitions; 12 tables (~0.5M
  // partitions) is a comfortable ceiling for this optimizer.
  if (query.tables.size() > 12) {
    return Status::Unsupported("more than 12 tables");
  }

  // Everything the estimator needs for this run travels in one context:
  // the T% hint, this run's sinks (estimation events nest under the
  // optimize span) and a fresh probe-count memo — the DP re-costs the same
  // conjunct under many (subset, context) combinations, and the memo
  // collapses those to one sample scan each without outliving the run.
  perf::ProbeCountCache probe_cache;
  RunState run;
  run.query = &query;
  run.options = options;
  run.estimation.confidence_threshold = options.confidence_threshold_hint;
  run.estimation.tracer = options.tracer;
  run.estimation.metrics = options.metrics;
  run.estimation.probe_cache = &probe_cache;
  if (options.metrics != nullptr) {
    run.metric_estimates =
        options.metrics->GetCounter("optimizer.estimate_calls");
    run.metric_cache_hits =
        options.metrics->GetCounter("optimizer.estimate_cache_hits");
    run.metric_candidates = options.metrics->GetCounter("optimizer.candidates");
  }
  obs::SpanGuard optimize_span(
      options.tracer, "optimizer", "optimize",
      {{"tables", obs::AttrU64(query.tables.size())},
       {"estimator", estimator_->name(run.estimation)}});
  const size_t n = query.tables.size();
  for (const TableRef& ref : query.tables) {
    const storage::Table* table = catalog_->GetTable(ref.table);
    if (table == nullptr) return Status::NotFound("table " + ref.table);
    run.tables.push_back(table);
  }

  // FK edges among the query tables.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      auto fk = catalog_->ForeignKeyBetween(run.tables[i]->name(),
                                            run.tables[j]->name());
      if (fk.ok()) run.edges.push_back({i, j, fk.value()});
    }
  }

  // Needed output columns per table: join keys plus whatever the SELECT
  // list / aggregates / grouping reference. Predicates are evaluated
  // against base-table rows inside the scans, so their columns need not be
  // carried.
  std::set<std::string> wanted;
  for (const auto& edge : run.edges) {
    wanted.insert(edge.fk.from_column);
    wanted.insert(edge.fk.to_column);
  }
  for (const auto& agg : query.aggregates) {
    if (!agg.column.empty()) wanted.insert(agg.column);
  }
  for (const auto& g : query.group_by) wanted.insert(g);
  for (const auto& s : query.select_columns) wanted.insert(s);
  run.needed_columns.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const storage::Schema& schema = run.tables[i]->schema();
    for (const std::string& w : wanted) {
      if (schema.HasColumn(w)) run.needed_columns[i].push_back(w);
    }
    if (run.needed_columns[i].empty()) {
      // Keep at least one (narrow) column so results stay well-formed.
      run.needed_columns[i].push_back(schema.column(0).name);
    }
  }

  // Dynamic programming over FK-connected subsets. Each subset's pruned
  // candidates become its memo list; joins refer to their inputs there.
  memo_.lists.assign(size_t{1} << n, {});
  memo_.payloads.clear();
  auto prune_into_memo = [&](uint32_t subset, std::vector<PlanEntry> cands) {
    const size_t considered = cands.size();
    PruneCandidates(memo_, &cands);
    if (run.options.tracer != nullptr) {
      const std::set<std::string> subset_names = run.SubsetNames(subset);
      std::vector<std::string> names(subset_names.begin(),
                                     subset_names.end());
      run.options.tracer->Event(
          "optimizer", "prune",
          {{"tables", StrJoin(names, ",")},
           {"considered", obs::AttrU64(considered)},
           {"kept", obs::AttrU64(cands.size())},
           {"best", cands.empty() ? "" : memo_.Label(cands.front())},
           {"best_cost",
            obs::AttrF(cands.empty() ? 0.0 : cands.front().cost)}});
    }
    memo_.lists[subset] = std::move(cands);
  };
  for (size_t i = 0; i < n; ++i) {
    std::vector<PlanEntry> cands;
    AddAccessPaths(&run, i, &cands);
    prune_into_memo(1u << i, std::move(cands));
  }
  const uint32_t full = (1u << n) - 1;
  for (uint32_t subset = 1; subset <= full; ++subset) {
    if (__builtin_popcount(subset) < 2) continue;
    std::vector<PlanEntry> cands;
    for (uint32_t s1 = (subset - 1) & subset; s1 != 0;
         s1 = (s1 - 1) & subset) {
      const uint32_t s2 = subset ^ s1;
      if (s1 > s2) continue;  // unordered partition; methods try both sides
      if (memo_.lists[s1].empty() || memo_.lists[s2].empty()) continue;
      AddJoinCandidates(&run, s1, s2, &cands);
    }
    if (subset == full && run.options.enable_star_strategies) {
      AddStarCandidates(&run, &cands);
    }
    if (!cands.empty()) prune_into_memo(subset, std::move(cands));
  }

  if (memo_.lists[full].empty()) {
    return Status::NotFound(
        "no plan: query tables are not foreign-key-connected");
  }
  const PlanEntry& best = memo_.lists[full].front();

  // Aggregation / final projection on top.
  PlannedQuery planned;
  planned.estimated_rows = best.rows;
  planned.estimated_spj_rows = best.rows;
  planned.estimated_cost = best.cost;
  OperatorPtr root = memo_.Build(best);
  std::string label = memo_.Label(best);
  if (!query.aggregates.empty()) {
    if (query.group_by.empty()) {
      planned.estimated_cost +=
          exec::AggregateCost(cost_model_, best.rows, 1.0);
      planned.estimated_rows = 1.0;
      root = std::make_unique<exec::ScalarAggregateOp>(std::move(root),
                                                       query.aggregates);
      root->set_planner_estimated_rows(planned.estimated_rows);
    } else {
      // GROUP BY output size: product of per-column distinct-value
      // estimates (Section 3.5 extension), capped by the input rows;
      // heuristic cap when no estimate is available.
      double distinct_product = 1.0;
      bool have_estimate = false;
      for (const std::string& column : query.group_by) {
        for (const TableRef& ref : query.tables) {
          const storage::Table* t = catalog_->GetTable(ref.table);
          if (t != nullptr && t->schema().HasColumn(column)) {
            Result<double> d = estimator_->EstimateDistinctValues(
                ref.table, column, run.estimation);
            if (d.ok()) {
              distinct_product *= std::max(1.0, d.value());
              have_estimate = true;
            }
            break;
          }
        }
      }
      const double groups =
          have_estimate ? std::min(best.rows, distinct_product)
                        : std::min(best.rows, 1000.0);
      planned.estimated_cost +=
          exec::AggregateCost(cost_model_, best.rows, groups);
      planned.estimated_rows = groups;
      root = std::make_unique<exec::GroupByAggregateOp>(
          std::move(root), query.group_by, query.aggregates);
      root->set_planner_estimated_rows(planned.estimated_rows);
    }
    label = "Agg(" + label + ")";
  } else if (!query.select_columns.empty()) {
    planned.estimated_cost +=
        cost_model_.output_tuple_cost * planned.estimated_rows;
    root = std::make_unique<exec::ProjectOp>(std::move(root),
                                             query.select_columns);
    root->set_planner_estimated_rows(planned.estimated_rows);
  }
  // Final ORDER BY / LIMIT decoration.
  if (!query.order_by.empty()) {
    planned.estimated_cost +=
        exec::SortCost(cost_model_, planned.estimated_rows);
    root = std::make_unique<exec::SortOp>(std::move(root), query.order_by);
    root->set_planner_estimated_rows(planned.estimated_rows);
    label = "Sort(" + label + ")";
  }
  if (query.limit > 0) {
    planned.estimated_rows =
        std::min(planned.estimated_rows, static_cast<double>(query.limit));
    planned.estimated_cost +=
        cost_model_.output_tuple_cost * planned.estimated_rows;
    root = std::make_unique<exec::LimitOp>(std::move(root), query.limit);
    root->set_planner_estimated_rows(planned.estimated_rows);
    label = StrPrintf("Limit%llu(%s)",
                      static_cast<unsigned long long>(query.limit),
                      label.c_str());
  }
  planned.root = std::move(root);
  planned.label = std::move(label);
  // Per-query counters (both tallied on the per-run probe cache; zero for
  // an estimator that keeps no samples), so the report is a function of
  // the query alone — byte-identical across runs and thread counts even
  // though the inverse-Beta LRU persists.
  metrics_.probe_cache_hits = static_cast<size_t>(probe_cache.hits());
  metrics_.probe_cache_misses = static_cast<size_t>(probe_cache.misses());
  metrics_.beta_cache_hits = static_cast<size_t>(probe_cache.beta_hits());
  metrics_.beta_cache_misses = static_cast<size_t>(probe_cache.beta_misses());
  // After the per-query cache counters are copied, so the extra posterior
  // read + grid quantile lookups never perturb the EXPLAIN ANALYZE
  // perf.cache numbers.
  if (run.options.provenance_enabled) {
    planned.sensitivity = CaptureSensitivity(&run, full);
  }
  const obs::PlanSensitivity& sensitivity = planned.sensitivity;
  if (sensitivity.captured) {
    if (options.tracer != nullptr) {
      obs::SpanGuard sens_span(
          options.tracer, "optimizer", "sensitivity",
          {{"plan", sensitivity.plan_label},
           {"threshold", obs::AttrF(sensitivity.threshold)},
           {"grid_points", obs::AttrU64(sensitivity.grid.size())},
           {"candidates", obs::AttrU64(sensitivity.candidates.size())}});
      if (sensitivity.available) {
        for (size_t i = 0; i < sensitivity.grid.size(); ++i) {
          options.tracer->Event(
              "optimizer", "sensitivity.point",
              {{"quantile", obs::AttrF(sensitivity.grid[i])},
               {"selectivity", obs::AttrF(sensitivity.selectivity[i])},
               {"winner_cost",
                obs::AttrF(sensitivity.candidates.front().cost_at[i])}});
        }
      }
      sens_span.Attr("stable", obs::AttrU64(sensitivity.stable ? 1 : 0));
      sens_span.Attr("crossover_quantile",
                     obs::AttrF(sensitivity.crossover_quantile));
      sens_span.Attr("max_regret_pct",
                     obs::AttrF(sensitivity.max_regret_pct));
      sens_span.Attr("verdict", sensitivity.verdict);
    }
    if (options.metrics != nullptr) {
      if (sensitivity.available) {
        options.metrics->GetCounter("optimizer.sensitivity.captured")
            ->Increment();
        options.metrics->GetGauge("optimizer.sensitivity.max_regret_pct")
            ->Set(sensitivity.max_regret_pct);
      } else {
        options.metrics->GetCounter("optimizer.sensitivity.unavailable")
            ->Increment();
      }
    }
  }
  if (run.metric_candidates != nullptr) {
    run.metric_candidates->Increment(metrics_.candidates);
  }
  if (options.tracer != nullptr) {
    options.tracer->Event(
        "perf", "cache",
        {{"probe_hits", obs::AttrU64(metrics_.probe_cache_hits)},
         {"probe_misses", obs::AttrU64(metrics_.probe_cache_misses)},
         {"beta_hits", obs::AttrU64(metrics_.beta_cache_hits)},
         {"beta_misses", obs::AttrU64(metrics_.beta_cache_misses)}});
  }
  if (options.tracer != nullptr) {
    optimize_span.Attr("candidates", obs::AttrU64(metrics_.candidates));
    optimize_span.Attr("estimator_calls",
                       obs::AttrU64(metrics_.estimator_calls));
    optimize_span.Attr("estimator_misses",
                       obs::AttrU64(metrics_.estimator_misses));
    optimize_span.Attr("chosen_label", planned.label);
    optimize_span.Attr("chosen_cost", obs::AttrF(planned.estimated_cost));
    optimize_span.Attr("chosen_rows", obs::AttrF(planned.estimated_rows));
  }
  return planned;
}

}  // namespace opt
}  // namespace robustqo
