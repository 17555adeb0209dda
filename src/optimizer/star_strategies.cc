// Star-join-specific plan strategies (paper Section 6.2.3): semijoin the
// fact table with a subset of the filtered dimensions via the indexed FK
// columns, intersect, fetch the qualifying fact rows, then hash-join any
// remaining dimensions. The all-dimensions case is the paper's "semijoin
// plan"; proper subsets are its "hybrid" plans; the empty subset (pure
// cascaded hash joins) is covered by the regular DP enumeration.

#include <algorithm>

#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/star_ops.h"
#include "optimizer/optimizer.h"
#include "optimizer/run_state.h"
#include "util/string_util.h"

namespace robustqo {
namespace opt {

using exec::OperatorPtr;

void Optimizer::AddStarCandidates(RunState* run,
                                  std::vector<PlanCandidate>* out) {
  const size_t n = run->tables.size();
  if (n < 3) return;

  // Identify the star shape: a fact table with FK edges to every other
  // table, each FK column indexed on the fact side.
  size_t fact_idx = SIZE_MAX;
  for (size_t f = 0; f < n && fact_idx == SIZE_MAX; ++f) {
    const std::string& fact = run->tables[f]->name();
    bool is_star_fact = true;
    for (size_t d = 0; d < n; ++d) {
      if (d == f) continue;
      bool found = false;
      for (const auto& edge : run->edges) {
        if (((edge.a == f && edge.b == d) || (edge.a == d && edge.b == f)) &&
            edge.fk.from_table == fact &&
            catalog_->HasIndex(fact, edge.fk.from_column)) {
          found = true;
          break;
        }
      }
      if (!found) {
        is_star_fact = false;
        break;
      }
    }
    if (is_star_fact) fact_idx = f;
  }
  if (fact_idx == SIZE_MAX) return;

  const std::string fact = run->tables[fact_idx]->name();
  const uint32_t fact_bit = 1u << fact_idx;

  // Dimension positions and their FK metadata.
  struct Dim {
    size_t idx;
    storage::ForeignKey fk;  // fact -> dim
  };
  std::vector<Dim> dims;
  for (const auto& edge : run->edges) {
    if (edge.fk.from_table != fact) continue;
    const size_t dim_idx = edge.a == fact_idx ? edge.b : edge.a;
    dims.push_back({dim_idx, edge.fk});
  }
  if (dims.size() + 1 != n) return;  // pure star queries only

  // Every subset of >= 2 dimensions participates in the semijoin phase.
  const uint32_t dim_limit = 1u << dims.size();
  for (uint32_t mask = 0; mask < dim_limit; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;

    double cost = 0.0;
    std::vector<exec::DimSemiJoin> semis;
    std::vector<std::string> semi_names;
    uint32_t covered = fact_bit;
    for (size_t i = 0; i < dims.size(); ++i) {
      if (!(mask & (1u << i))) continue;
      const Dim& dim = dims[i];
      const storage::Table* dim_table = run->tables[dim.idx];
      const uint32_t dim_bit = 1u << dim.idx;
      covered |= dim_bit;
      const double dim_rows = static_cast<double>(dim_table->num_rows());
      const double selected_dims = EstimateRows(run, dim_bit);
      // |fact |x| sigma(dim)|: index entries touched for this dimension.
      const expr::ExprPtr dim_pred = run->query->tables[dim.idx].predicate;
      const double entries = EstimateRowsWithPredicate(
          run, fact_bit | dim_bit, dim_pred,
          "star:" + dim_table->name());
      cost += cost_model_.seq_tuple_cost * dim_rows +
              cost_model_.index_seek_cost * selected_dims +
              cost_model_.index_entry_cost * entries +
              cost_model_.cpu_tuple_cost * entries;
      semis.push_back({dim_table->name(), dim_pred, dim.fk.to_column,
                       dim.fk.from_column});
      semi_names.push_back(dim_table->name());
    }

    // Fact rows surviving the RID intersection, fetched one random I/O
    // each — the risky part of the plan.
    const double survivors = EstimateRowsWithPredicate(
        run, covered, run->query->CombinedPredicate(run->SubsetNames(covered)),
        "own");
    cost += cost_model_.random_io_cost * survivors +
            cost_model_.output_tuple_cost * survivors;

    std::string label =
        "Star(" + fact + ";" + StrJoin(semi_names, ",") + ")";
    const expr::ExprPtr fact_pred = run->query->tables[fact_idx].predicate;
    const std::vector<std::string> fact_cols =
        run->needed_columns[fact_idx];
    auto semis_copy = semis;
    std::function<OperatorPtr()> build = [fact, semis_copy, fact_pred,
                                          fact_cols,
                                          survivors]() -> OperatorPtr {
      auto op = std::make_unique<exec::StarSemiJoinOp>(fact, semis_copy,
                                                       fact_pred, fact_cols);
      op->set_planner_estimated_rows(survivors);
      return op;
    };
    double rows = survivors;

    // Hash-join the remaining dimensions (build = filtered dimension).
    for (size_t i = 0; i < dims.size(); ++i) {
      if (mask & (1u << i)) continue;
      const Dim& dim = dims[i];
      const storage::Table* dim_table = run->tables[dim.idx];
      const uint32_t dim_bit = 1u << dim.idx;
      covered |= dim_bit;
      const double dim_rows = static_cast<double>(dim_table->num_rows());
      const double selected_dims = EstimateRows(run, dim_bit);
      const double next_rows = EstimateRowsWithPredicate(
          run, covered,
          run->query->CombinedPredicate(run->SubsetNames(covered)), "own");
      cost += exec::SeqScanCost(cost_model_, dim_rows, selected_dims) +
              exec::HashJoinCost(cost_model_, selected_dims, rows, next_rows);
      const std::string dim_name = dim_table->name();
      const expr::ExprPtr dim_pred = run->query->tables[dim.idx].predicate;
      const std::vector<std::string> dim_cols = run->needed_columns[dim.idx];
      const std::string build_key = dim.fk.to_column;
      const std::string probe_key = dim.fk.from_column;
      auto prev = build;
      build = [prev, dim_name, dim_pred, dim_cols, build_key, probe_key,
               selected_dims, next_rows]() -> OperatorPtr {
        auto dim_scan =
            std::make_unique<exec::SeqScanOp>(dim_name, dim_pred, dim_cols);
        dim_scan->set_planner_estimated_rows(selected_dims);
        auto op = std::make_unique<exec::HashJoinOp>(
            std::move(dim_scan), prev(), build_key, probe_key);
        op->set_planner_estimated_rows(next_rows);
        return op;
      };
      label = "HJ(Seq(" + dim_name + ")," + label + ")";
      rows = next_rows;
    }

    PlanCandidate cand;
    cand.cost = cost;
    cand.rows = rows;
    cand.sort_order = "";
    cand.label = std::move(label);
    cand.build = std::move(build);
    out->push_back(std::move(cand));
    ++metrics_.candidates;
  }
}

}  // namespace opt
}  // namespace robustqo
