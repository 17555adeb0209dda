#include "optimizer/optimizer.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

#include "exec/agg_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_op.h"
#include "expr/analysis.h"
#include "optimizer/run_state.h"
#include "perf/caches.h"
#include "statistics/magic.h"
#include "statistics/robust_sample_estimator.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace opt {

using exec::CostModel;
using exec::OperatorPtr;

namespace {

// Temporarily overrides the robust estimator's confidence threshold when a
// query hint is present; restores it on destruction.
class ThresholdHintScope {
 public:
  ThresholdHintScope(stats::CardinalityEstimator* estimator,
                     std::optional<double> hint) {
    if (!hint.has_value()) return;
    robust_ = dynamic_cast<stats::RobustSampleEstimator*>(estimator);
    if (robust_ != nullptr) {
      saved_ = robust_->config().confidence_threshold;
      robust_->set_confidence_threshold(*hint);
    }
  }
  ~ThresholdHintScope() {
    if (robust_ != nullptr) robust_->set_confidence_threshold(saved_);
  }

 private:
  stats::RobustSampleEstimator* robust_ = nullptr;
  double saved_ = 0.0;
};

std::string SubsetKey(uint32_t subset) {
  return StrPrintf("%u", subset);
}

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
    : catalog_(catalog), estimator_(estimator), cost_model_(cost_model) {
  RQO_CHECK(catalog != nullptr && estimator != nullptr);
}

double Optimizer::EstimateRowsWithPredicate(RunState* run, uint32_t subset,
                                            const expr::ExprPtr& predicate,
                                            const std::string& cache_tag) {
  ++metrics_.estimator_calls;
  if (run->metric_estimates != nullptr) run->metric_estimates->Increment();
  const std::string key = SubsetKey(subset) + "|" + cache_tag;
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
  request.predicate = predicate;
  Result<double> rows = estimator_->EstimateRows(request);
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
    if (predicate != nullptr) {
      for (size_t i = 0; i < expr::SplitConjuncts(predicate).size(); ++i) {
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
         {"tag", cache_tag},
         {"fallback", rows.ok() ? "false" : "true"},
         {"est_rows", obs::AttrF(value)}});
  }
  run->estimate_cache.emplace(key, value);
  return value;
}

double Optimizer::EstimateRows(RunState* run, uint32_t subset) {
  const expr::ExprPtr predicate =
      run->query->CombinedPredicate(run->SubsetNames(subset));
  return EstimateRowsWithPredicate(run, subset, predicate, "own");
}

void Optimizer::AddAccessPaths(RunState* run, size_t table_idx,
                               std::vector<PlanCandidate>* out) {
  const storage::Table* table = run->tables[table_idx];
  const std::string name = table->name();
  const expr::ExprPtr predicate = run->query->tables[table_idx].predicate;
  const std::vector<std::string>& columns = run->needed_columns[table_idx];
  const double total_rows = static_cast<double>(table->num_rows());
  const uint32_t bit = 1u << table_idx;
  const double est_rows = EstimateRows(run, bit);

  auto in_projection = [&columns](const std::string& col) {
    return std::find(columns.begin(), columns.end(), col) != columns.end();
  };

  // 1) Sequential scan — the selectivity-insensitive plan.
  {
    PlanCandidate cand;
    cand.cost = exec::SeqScanCost(cost_model_, total_rows, est_rows);
    cand.rows = est_rows;
    const std::string cluster = catalog_->ClusteringColumnOf(name);
    cand.sort_order = in_projection(cluster) ? cluster : "";
    cand.label = "Seq(" + name + ")";
    cand.build = [name, predicate, columns, est_rows]() -> OperatorPtr {
      auto op = std::make_unique<exec::SeqScanOp>(name, predicate, columns);
      op->set_planner_estimated_rows(est_rows);
      return op;
    };
    if (run->options.provenance_enabled) {
      const CostModel cm = cost_model_;
      cand.cost_at = [cm, total_rows, est_rows](double ratio) {
        return exec::SeqScanCost(cm, total_rows, est_rows * ratio);
      };
    }
    out->push_back(std::move(cand));
    ++metrics_.candidates;
  }

  const std::vector<SargableConjunct> sargables =
      IndexedSargables(*catalog_, name, predicate);

  // 2) Single-index range scans.
  for (const SargableConjunct& s : sargables) {
    const double conj_rows = EstimateRowsWithPredicate(
        run, bit, s.conjunct, "conj:" + s.conjunct->ToString());
    const double entries =
        total_rows * std::min(1.0, conj_rows / std::max(1.0, total_rows));
    PlanCandidate cand;
    cand.cost =
        exec::IndexRangeScanCost(cost_model_, entries, entries, est_rows);
    cand.rows = est_rows;
    cand.sort_order = in_projection(s.range.column) ? s.range.column : "";
    cand.label = "Ix(" + name + "." + s.range.column + ")";
    exec::IndexRange range{s.range.column, s.range.lo, s.range.hi};
    cand.build = [name, range, predicate, columns,
                  est_rows]() -> OperatorPtr {
      auto op = std::make_unique<exec::IndexRangeScanOp>(name, range,
                                                         predicate, columns);
      op->set_planner_estimated_rows(est_rows);
      return op;
    };
    if (run->options.provenance_enabled) {
      const CostModel cm = cost_model_;
      cand.cost_at = [cm, total_rows, conj_rows, est_rows](double ratio) {
        const double e = total_rows *
                         std::min(1.0, conj_rows * ratio /
                                           std::max(1.0, total_rows));
        return exec::IndexRangeScanCost(cm, e, e, est_rows * ratio);
      };
    }
    out->push_back(std::move(cand));
    ++metrics_.candidates;
  }

  // 3) Index intersections over every subset of >= 2 sargable indexes.
  if (run->options.enable_index_intersection && sargables.size() >= 2) {
    const uint32_t limit = 1u << sargables.size();
    for (uint32_t mask = 0; mask < limit; ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      std::vector<exec::IndexRange> ranges;
      std::vector<expr::ExprPtr> conjuncts;
      std::vector<std::string> range_cols;
      std::vector<double> conj_rows;
      double entries_total = 0.0;
      for (size_t i = 0; i < sargables.size(); ++i) {
        if (!(mask & (1u << i))) continue;
        const SargableConjunct& s = sargables[i];
        ranges.push_back({s.range.column, s.range.lo, s.range.hi});
        conjuncts.push_back(s.conjunct);
        range_cols.push_back(s.range.column);
        const double rows_i = EstimateRowsWithPredicate(
            run, bit, s.conjunct, "conj:" + s.conjunct->ToString());
        conj_rows.push_back(rows_i);
        entries_total +=
            total_rows * std::min(1.0, rows_i / std::max(1.0, total_rows));
      }
      // Survivors of the RID intersection: the *joint* selectivity of the
      // chosen conjuncts — this estimate is where AVI goes wrong on
      // correlated data and where the robust estimator shines.
      expr::ExprPtr joint = conjuncts.size() == 1
                                ? conjuncts[0]
                                : expr::And(conjuncts);
      const double fetches = EstimateRowsWithPredicate(
          run, bit, joint, "conj:" + joint->ToString());
      PlanCandidate cand;
      cand.cost = exec::IndexIntersectionCost(
          cost_model_, static_cast<int>(ranges.size()), entries_total,
          fetches, est_rows);
      cand.rows = est_rows;
      cand.sort_order = "";
      cand.label =
          "IxSect(" + name + ":" + StrJoin(range_cols, "&") + ")";
      cand.build = [name, ranges, predicate, columns,
                    est_rows]() -> OperatorPtr {
        auto op = std::make_unique<exec::IndexIntersectionOp>(
            name, ranges, predicate, columns);
        op->set_planner_estimated_rows(est_rows);
        return op;
      };
      if (run->options.provenance_enabled) {
        const CostModel cm = cost_model_;
        const int nranges = static_cast<int>(ranges.size());
        cand.cost_at = [cm, nranges, conj_rows, total_rows, fetches,
                        est_rows](double ratio) {
          double entries = 0.0;
          for (double rows_i : conj_rows) {
            entries += total_rows *
                       std::min(1.0, rows_i * ratio /
                                         std::max(1.0, total_rows));
          }
          return exec::IndexIntersectionCost(cm, nranges, entries,
                                             fetches * ratio,
                                             est_rows * ratio);
        };
      }
      out->push_back(std::move(cand));
      ++metrics_.candidates;
    }
  }
}

void Optimizer::AddJoinCandidates(RunState* run, uint32_t s1, uint32_t s2,
                                  const std::vector<PlanCandidate>& left,
                                  const std::vector<PlanCandidate>& right,
                                  std::vector<PlanCandidate>* out) {
  const size_t edge_idx = run->CrossingEdge(s1, s2);
  if (edge_idx == SIZE_MAX) return;
  const RunState::Edge& edge = run->edges[edge_idx];
  // Join columns on each side of the partition.
  const bool from_in_s1 =
      (s1 & (1u << run->IndexOf(edge.fk.from_table))) != 0;
  const std::string key1 =
      from_in_s1 ? edge.fk.from_column : edge.fk.to_column;
  const std::string key2 =
      from_in_s1 ? edge.fk.to_column : edge.fk.from_column;

  const uint32_t joined = s1 | s2;
  const double out_rows = EstimateRows(run, joined);

  for (const PlanCandidate& l : left) {
    for (const PlanCandidate& r : right) {
      // Hash join, both build directions.
      if (run->options.enable_hash_join) {
        PlanCandidate cand;
        cand.cost = l.cost + r.cost +
                    exec::HashJoinCost(cost_model_, l.rows, r.rows, out_rows);
        cand.rows = out_rows;
        cand.sort_order = r.sort_order;  // probe-side order is preserved
        cand.label = "HJ(" + l.label + "," + r.label + ")";
        auto lb = l.build;
        auto rb = r.build;
        cand.build = [lb, rb, key1, key2, out_rows]() -> OperatorPtr {
          auto op =
              std::make_unique<exec::HashJoinOp>(lb(), rb(), key1, key2);
          op->set_planner_estimated_rows(out_rows);
          return op;
        };
        if (run->options.provenance_enabled && l.cost_at && r.cost_at) {
          const CostModel cm = cost_model_;
          auto lc = l.cost_at;
          auto rc = r.cost_at;
          const double l_rows = l.rows;
          const double r_rows = r.rows;
          cand.cost_at = [cm, lc, rc, l_rows, r_rows,
                          out_rows](double ratio) {
            return lc(ratio) + rc(ratio) +
                   exec::HashJoinCost(cm, l_rows * ratio, r_rows * ratio,
                                      out_rows * ratio);
          };
        }
        out->push_back(std::move(cand));
        ++metrics_.candidates;
      }
      if (run->options.enable_hash_join) {
        PlanCandidate cand;
        cand.cost = l.cost + r.cost +
                    exec::HashJoinCost(cost_model_, r.rows, l.rows, out_rows);
        cand.rows = out_rows;
        cand.sort_order = l.sort_order;
        cand.label = "HJ(" + r.label + "," + l.label + ")";
        auto lb = l.build;
        auto rb = r.build;
        cand.build = [lb, rb, key1, key2, out_rows]() -> OperatorPtr {
          auto op =
              std::make_unique<exec::HashJoinOp>(rb(), lb(), key2, key1);
          op->set_planner_estimated_rows(out_rows);
          return op;
        };
        if (run->options.provenance_enabled && l.cost_at && r.cost_at) {
          const CostModel cm = cost_model_;
          auto lc = l.cost_at;
          auto rc = r.cost_at;
          const double l_rows = l.rows;
          const double r_rows = r.rows;
          cand.cost_at = [cm, lc, rc, l_rows, r_rows,
                          out_rows](double ratio) {
            return lc(ratio) + rc(ratio) +
                   exec::HashJoinCost(cm, r_rows * ratio, l_rows * ratio,
                                      out_rows * ratio);
          };
        }
        out->push_back(std::move(cand));
        ++metrics_.candidates;
      }
      // Merge join: directly when both inputs arrive sorted on the join
      // keys; otherwise (optionally) below explicit Sort operators.
      if (run->options.enable_merge_join) {
        const bool l_sorted = l.sort_order == key1;
        const bool r_sorted = r.sort_order == key2;
        const bool need_sorts = !l_sorted || !r_sorted;
        if (!need_sorts || run->options.enable_sort_for_merge) {
          PlanCandidate cand;
          cand.cost = l.cost + r.cost +
                      exec::MergeJoinCost(cost_model_, l.rows, r.rows,
                                          out_rows);
          std::string l_label = l.label;
          std::string r_label = r.label;
          if (!l_sorted) {
            cand.cost += exec::SortCost(cost_model_, l.rows);
            l_label = "Sort(" + l_label + ")";
          }
          if (!r_sorted) {
            cand.cost += exec::SortCost(cost_model_, r.rows);
            r_label = "Sort(" + r_label + ")";
          }
          cand.rows = out_rows;
          cand.sort_order = key1;
          cand.label = "MJ(" + l_label + "," + r_label + ")";
          auto lb = l.build;
          auto rb = r.build;
          const double l_rows = l.rows;
          const double r_rows = r.rows;
          cand.build = [lb, rb, key1, key2, l_sorted, r_sorted, out_rows,
                        l_rows, r_rows]() -> OperatorPtr {
            OperatorPtr left_op = lb();
            OperatorPtr right_op = rb();
            if (!l_sorted) {
              left_op =
                  std::make_unique<exec::SortOp>(std::move(left_op), key1);
              left_op->set_planner_estimated_rows(l_rows);
            }
            if (!r_sorted) {
              right_op =
                  std::make_unique<exec::SortOp>(std::move(right_op), key2);
              right_op->set_planner_estimated_rows(r_rows);
            }
            auto op = std::make_unique<exec::MergeJoinOp>(
                std::move(left_op), std::move(right_op), key1, key2);
            op->set_planner_estimated_rows(out_rows);
            return op;
          };
          if (run->options.provenance_enabled && l.cost_at && r.cost_at) {
            const CostModel cm = cost_model_;
            auto lc = l.cost_at;
            auto rc = r.cost_at;
            cand.cost_at = [cm, lc, rc, l_rows, r_rows, l_sorted, r_sorted,
                            out_rows](double ratio) {
              double c = lc(ratio) + rc(ratio) +
                         exec::MergeJoinCost(cm, l_rows * ratio,
                                             r_rows * ratio,
                                             out_rows * ratio);
              if (!l_sorted) c += exec::SortCost(cm, l_rows * ratio);
              if (!r_sorted) c += exec::SortCost(cm, r_rows * ratio);
              return c;
            };
          }
          out->push_back(std::move(cand));
          ++metrics_.candidates;
        }
      }
    }
  }

  // Indexed nested-loop join: inner side must be a single base table with
  // an index on its join column. Try each orientation.
  if (run->options.enable_index_nested_loop) {
    struct Orientation {
      uint32_t outer_set;
      uint32_t inner_set;
      const std::vector<PlanCandidate>* outer_cands;
      std::string outer_key;
      std::string inner_key;
    };
    const Orientation orientations[2] = {
        {s1, s2, &left, key1, key2},
        {s2, s1, &right, key2, key1},
    };
    for (const Orientation& o : orientations) {
      if (__builtin_popcount(o.inner_set) != 1) continue;
      const size_t inner_idx =
          static_cast<size_t>(__builtin_ctz(o.inner_set));
      const std::string inner_name = run->tables[inner_idx]->name();
      if (!catalog_->HasIndex(inner_name, o.inner_key)) continue;

      // Matching index entries before the inner predicate: the join of the
      // outer subset with the bare inner table.
      const expr::ExprPtr outer_pred =
          run->query->CombinedPredicate(run->SubsetNames(o.outer_set));
      const double entries = EstimateRowsWithPredicate(
          run, joined, outer_pred,
          "noinner:" + inner_name +
              (outer_pred ? outer_pred->ToString() : ""));
      const expr::ExprPtr inner_pred =
          run->query->tables[inner_idx].predicate;
      const std::vector<std::string> inner_cols =
          run->needed_columns[inner_idx];
      for (const PlanCandidate& outer : *o.outer_cands) {
        PlanCandidate cand;
        cand.cost = outer.cost + exec::IndexNestedLoopJoinCost(
                                     cost_model_, outer.rows, entries,
                                     entries, out_rows);
        cand.rows = out_rows;
        cand.sort_order = outer.sort_order;
        cand.label = "INLJ(" + outer.label + ">" + inner_name + ")";
        auto ob = outer.build;
        const std::string outer_key = o.outer_key;
        const std::string inner_key = o.inner_key;
        cand.build = [ob, outer_key, inner_name, inner_key, inner_pred,
                      out_rows]() -> OperatorPtr {
          auto op = std::make_unique<exec::IndexNestedLoopJoinOp>(
              ob(), outer_key, inner_name, inner_key, inner_pred);
          op->set_planner_estimated_rows(out_rows);
          return op;
        };
        if (run->options.provenance_enabled && outer.cost_at) {
          const CostModel cm = cost_model_;
          auto oc = outer.cost_at;
          const double outer_rows = outer.rows;
          cand.cost_at = [cm, oc, outer_rows, entries,
                          out_rows](double ratio) {
            return oc(ratio) + exec::IndexNestedLoopJoinCost(
                                   cm, outer_rows * ratio, entries * ratio,
                                   entries * ratio, out_rows * ratio);
          };
        }
        out->push_back(std::move(cand));
        ++metrics_.candidates;
      }
    }
  }
}

void Optimizer::PruneCandidates(std::vector<PlanCandidate>* candidates) {
  if (candidates->empty()) return;
  std::unordered_map<std::string, PlanCandidate> best_by_order;
  for (PlanCandidate& cand : *candidates) {
    auto it = best_by_order.find(cand.sort_order);
    // Pinned tie-break: lower cost wins, and an exact cost tie goes to
    // the lexicographically smaller label — the survivor (and the
    // provenance top-K built from the surviving order) must never depend
    // on candidate generation order.
    if (it == best_by_order.end() || cand.cost < it->second.cost ||
        (cand.cost == it->second.cost && cand.label < it->second.label)) {
      best_by_order[cand.sort_order] = std::move(cand);
    }
  }
  candidates->clear();
  // Drop sorted candidates that are dominated by the cheapest unsorted one
  // only if the unsorted one is cheaper AND the sorted one adds nothing —
  // sorted outputs are retained because merge join may exploit them.
  for (auto& [order, cand] : best_by_order) {
    candidates->push_back(std::move(cand));
  }
  std::sort(candidates->begin(), candidates->end(),
            [](const PlanCandidate& a, const PlanCandidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.label != b.label) return a.label < b.label;
              return a.sort_order < b.sort_order;
            });
}

const std::vector<double>& Optimizer::SensitivityGrid() {
  static const std::vector<double> kGrid = {0.10, 0.25, 0.50,
                                            0.75, 0.90, 0.95};
  return kGrid;
}

void Optimizer::CaptureSensitivity(
    RunState* run, uint32_t full_subset,
    const std::vector<PlanCandidate>& finalists) {
  sensitivity_ = obs::PlanSensitivity{};
  sensitivity_.captured = true;
  sensitivity_.grid = SensitivityGrid();
  if (!finalists.empty()) sensitivity_.plan_label = finalists.front().label;

  auto* robust = dynamic_cast<stats::RobustSampleEstimator*>(estimator_);
  double threshold_selectivity = 0.0;
  if (robust == nullptr) {
    sensitivity_.unavailable_reason = "estimator has no posterior";
  } else {
    sensitivity_.threshold = robust->config().confidence_threshold;
    stats::CardinalityRequest request;
    request.tables = run->SubsetNames(full_subset);
    request.predicate = run->query->CombinedPredicate(request.tables);
    if (request.predicate == nullptr) {
      sensitivity_.unavailable_reason = "query has no predicate";
    } else {
      Result<stats::SelectivityPosterior> posterior =
          robust->EstimatePosterior(request);
      if (!posterior.ok()) {
        sensitivity_.unavailable_reason = "no covering posterior";
      } else {
        // All cdf^{-1} evaluations go through the shared inverse-Beta LRU,
        // so a re-planned fingerprint re-reads its whole grid from cache.
        const math::BetaDistribution& dist =
            posterior.value().distribution();
        perf::InverseBetaCache* beta = robust->beta_cache();
        threshold_selectivity =
            beta->Value(dist.alpha(), dist.beta(), sensitivity_.threshold);
        for (double q : sensitivity_.grid) {
          sensitivity_.selectivity.push_back(
              beta->Value(dist.alpha(), dist.beta(), q));
        }
        if (threshold_selectivity > 0.0) {
          sensitivity_.available = true;
        } else {
          sensitivity_.selectivity.clear();
          sensitivity_.unavailable_reason =
              "degenerate threshold selectivity";
        }
      }
    }
  }

  if (sensitivity_.available) {
    const size_t keep =
        std::min(finalists.size(), run->options.provenance_top_k + 1);
    for (size_t c = 0; c < keep; ++c) {
      const PlanCandidate& cand = finalists[c];
      obs::CandidateCurve curve;
      curve.label = cand.label;
      curve.cost = cand.cost;
      curve.rows = cand.rows;
      curve.curve_available = static_cast<bool>(cand.cost_at);
      for (double selectivity : sensitivity_.selectivity) {
        const double ratio = selectivity / threshold_selectivity;
        curve.cost_at.push_back(curve.curve_available ? cand.cost_at(ratio)
                                                      : cand.cost);
      }
      sensitivity_.candidates.push_back(std::move(curve));
    }
  }
  obs::FinalizeSensitivity(&sensitivity_);
}

Result<PlannedQuery> Optimizer::Optimize(const QuerySpec& query,
                                         const OptimizerOptions& options) {
  metrics_ = Metrics();
  sensitivity_ = obs::PlanSensitivity{};
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  // Exhaustive subset DP enumerates O(3^n) partitions; 12 tables (~0.5M
  // partitions) is a comfortable ceiling for this optimizer.
  if (query.tables.size() > 12) {
    return Status::Unsupported("more than 12 tables");
  }

  ThresholdHintScope hint_scope(estimator_, options.confidence_threshold_hint);

  // Per-run probe-count memo on the robust estimator: the DP re-costs the
  // same conjunct under many (subset, context) combinations, and the probe
  // cache collapses those to one sample scan each. Fresh per run, so
  // entries never outlive the statistics; restored on every return path.
  perf::ProbeCountCache probe_cache;
  struct ProbeCacheScope {
    stats::RobustSampleEstimator* robust = nullptr;
    perf::ProbeCountCache* saved = nullptr;
    ~ProbeCacheScope() {
      if (robust != nullptr) robust->set_probe_cache(saved);
    }
  } probe_scope;
  probe_scope.robust = dynamic_cast<stats::RobustSampleEstimator*>(estimator_);
  if (probe_scope.robust != nullptr && options.enable_probe_cache) {
    probe_scope.saved = probe_scope.robust->probe_cache();
    probe_scope.robust->set_probe_cache(&probe_cache);
  }

  RunState run;
  run.query = &query;
  run.options = options;
  if (options.metrics != nullptr) {
    run.metric_estimates =
        options.metrics->GetCounter("optimizer.estimate_calls");
    run.metric_cache_hits =
        options.metrics->GetCounter("optimizer.estimate_cache_hits");
    run.metric_candidates = options.metrics->GetCounter("optimizer.candidates");
  }
  // Scope the estimator's trace/metrics sinks to this run so estimation
  // events nest under the optimize span and degradations are counted
  // (restored on every return path).
  struct EstimatorSinkScope {
    stats::CardinalityEstimator* estimator;
    obs::Tracer* saved_tracer;
    obs::MetricsRegistry* saved_metrics;
    ~EstimatorSinkScope() {
      estimator->set_tracer(saved_tracer);
      estimator->set_metrics(saved_metrics);
    }
  } estimator_sink_scope{estimator_, estimator_->tracer(),
                         estimator_->metrics()};
  if (options.tracer != nullptr) estimator_->set_tracer(options.tracer);
  if (options.metrics != nullptr) estimator_->set_metrics(options.metrics);
  obs::SpanGuard optimize_span(
      options.tracer, "optimizer", "optimize",
      {{"tables", obs::AttrU64(query.tables.size())},
       {"estimator", estimator_->name()}});
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

  // Dynamic programming over FK-connected subsets.
  std::unordered_map<uint32_t, std::vector<PlanCandidate>> plans;
  for (size_t i = 0; i < n; ++i) {
    std::vector<PlanCandidate> cands;
    AddAccessPaths(&run, i, &cands);
    const size_t considered = cands.size();
    PruneCandidates(&cands);
    if (run.options.tracer != nullptr) {
      run.options.tracer->Event(
          "optimizer", "prune",
          {{"tables", run.tables[i]->name()},
           {"considered", obs::AttrU64(considered)},
           {"kept", obs::AttrU64(cands.size())},
           {"best", cands.empty() ? "" : cands.front().label},
           {"best_cost",
            obs::AttrF(cands.empty() ? 0.0 : cands.front().cost)}});
    }
    plans[1u << i] = std::move(cands);
  }
  const uint32_t full = (n >= 32) ? 0xffffffffu : ((1u << n) - 1);
  for (uint32_t subset = 1; subset <= full; ++subset) {
    if (__builtin_popcount(subset) < 2) continue;
    std::vector<PlanCandidate> cands;
    for (uint32_t s1 = (subset - 1) & subset; s1 != 0;
         s1 = (s1 - 1) & subset) {
      const uint32_t s2 = subset ^ s1;
      if (s1 > s2) continue;  // unordered partition; methods try both sides
      auto it1 = plans.find(s1);
      auto it2 = plans.find(s2);
      if (it1 == plans.end() || it2 == plans.end()) continue;
      if (it1->second.empty() || it2->second.empty()) continue;
      AddJoinCandidates(&run, s1, s2, it1->second, it2->second, &cands);
    }
    if (subset == full && run.options.enable_star_strategies) {
      AddStarCandidates(&run, &cands);
    }
    if (!cands.empty()) {
      const size_t considered = cands.size();
      PruneCandidates(&cands);
      if (run.options.tracer != nullptr) {
        const std::set<std::string> subset_names = run.SubsetNames(subset);
        std::vector<std::string> names(subset_names.begin(),
                                       subset_names.end());
        run.options.tracer->Event(
            "optimizer", "prune",
            {{"tables", StrJoin(names, ",")},
             {"considered", obs::AttrU64(considered)},
             {"kept", obs::AttrU64(cands.size())},
             {"best", cands.front().label},
             {"best_cost", obs::AttrF(cands.front().cost)}});
      }
      plans[subset] = std::move(cands);
    }
  }

  auto final_it = plans.find(full);
  if (final_it == plans.end() || final_it->second.empty()) {
    return Status::NotFound(
        "no plan: query tables are not foreign-key-connected");
  }
  const PlanCandidate& best = final_it->second.front();

  // Aggregation / final projection on top.
  PlannedQuery planned;
  planned.estimated_rows = best.rows;
  planned.estimated_spj_rows = best.rows;
  planned.estimated_cost = best.cost;
  OperatorPtr root = best.build();
  std::string label = best.label;
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
            Result<double> d =
                estimator_->EstimateDistinctValues(ref.table, column);
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
  if (probe_scope.robust != nullptr) {
    // Per-query counters (both tallied on the per-run probe cache), so the
    // report is a function of the query alone — byte-identical across runs
    // and thread counts even though the inverse-Beta LRU persists.
    metrics_.probe_cache_hits = static_cast<size_t>(probe_cache.hits());
    metrics_.probe_cache_misses = static_cast<size_t>(probe_cache.misses());
    metrics_.beta_cache_hits = static_cast<size_t>(probe_cache.beta_hits());
    metrics_.beta_cache_misses =
        static_cast<size_t>(probe_cache.beta_misses());
  }
  // After the per-query cache counters are copied, so the extra posterior
  // read + grid quantile lookups never perturb the EXPLAIN ANALYZE
  // perf.cache numbers.
  if (run.options.provenance_enabled) {
    CaptureSensitivity(&run, full, final_it->second);
  }
  if (sensitivity_.captured) {
    if (options.tracer != nullptr) {
      obs::SpanGuard sens_span(
          options.tracer, "optimizer", "sensitivity",
          {{"plan", sensitivity_.plan_label},
           {"threshold", obs::AttrF(sensitivity_.threshold)},
           {"grid_points", obs::AttrU64(sensitivity_.grid.size())},
           {"candidates", obs::AttrU64(sensitivity_.candidates.size())}});
      if (sensitivity_.available) {
        for (size_t i = 0; i < sensitivity_.grid.size(); ++i) {
          options.tracer->Event(
              "optimizer", "sensitivity.point",
              {{"quantile", obs::AttrF(sensitivity_.grid[i])},
               {"selectivity", obs::AttrF(sensitivity_.selectivity[i])},
               {"winner_cost",
                obs::AttrF(sensitivity_.candidates.front().cost_at[i])}});
        }
      }
      sens_span.Attr("stable", obs::AttrU64(sensitivity_.stable ? 1 : 0));
      sens_span.Attr("crossover_quantile",
                     obs::AttrF(sensitivity_.crossover_quantile));
      sens_span.Attr("max_regret_pct",
                     obs::AttrF(sensitivity_.max_regret_pct));
      sens_span.Attr("verdict", sensitivity_.verdict);
    }
    if (options.metrics != nullptr) {
      if (sensitivity_.available) {
        options.metrics->GetCounter("optimizer.sensitivity.captured")
            ->Increment();
        options.metrics->GetGauge("optimizer.sensitivity.max_regret_pct")
            ->Set(sensitivity_.max_regret_pct);
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
