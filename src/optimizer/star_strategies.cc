// Star-join-specific plan strategies (paper Section 6.2.3): semijoin the
// fact table with a subset of the filtered dimensions via the indexed FK
// columns, intersect, fetch the qualifying fact rows, then hash-join any
// remaining dimensions. The all-dimensions case is the paper's "semijoin
// plan"; proper subsets are its "hybrid" plans; the empty subset (pure
// cascaded hash joins) is covered by the regular DP enumeration.

#include <algorithm>

#include "optimizer/optimizer.h"
#include "optimizer/run_state.h"

namespace robustqo {
namespace opt {

void Optimizer::AddStarCandidates(RunState* run,
                                  std::vector<PlanEntry>* out) {
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
    PlanPayload payload;
    payload.table = fact;
    payload.predicate = run->query->tables[fact_idx].predicate;
    payload.columns = run->needed_columns[fact_idx];
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
      const expr::ExprPtr& dim_pred = run->query->tables[dim.idx].predicate;
      const double entries = EstimateRows(
          run, fact_bit | dim_bit, "star:" + dim_table->name(), &dim_pred);
      cost += cost_model_.seq_tuple_cost * dim_rows +
              cost_model_.index_seek_cost * selected_dims +
              cost_model_.index_entry_cost * entries +
              cost_model_.cpu_tuple_cost * entries;
      payload.semis.push_back({dim_table->name(), dim_pred, dim.fk.to_column,
                               dim.fk.from_column});
    }

    // Fact rows surviving the RID intersection, fetched one random I/O
    // each — the risky part of the plan.
    const double survivors = EstimateRows(run, covered);
    cost += cost_model_.random_io_cost * survivors +
            cost_model_.output_tuple_cost * survivors;
    payload.fetches = survivors;
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
      const double next_rows = EstimateRows(run, covered);
      cost += exec::SeqScanCost(cost_model_, dim_rows, selected_dims) +
              exec::HashJoinCost(cost_model_, selected_dims, rows, next_rows);
      payload.hash_joins.push_back(
          {{dim_table->name(), run->query->tables[dim.idx].predicate,
            dim.fk.to_column, dim.fk.from_column},
           run->needed_columns[dim.idx],
           selected_dims,
           next_rows});
      rows = next_rows;
    }

    PlanEntry cand;
    cand.method = PlanMethod::kStar;
    cand.payload = memo_.AddPayload(std::move(payload));
    cand.cost = cost;
    cand.rows = rows;
    out->push_back(std::move(cand));
    ++metrics_.candidates;
  }
}

}  // namespace opt
}  // namespace robustqo
