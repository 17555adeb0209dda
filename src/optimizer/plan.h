// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The optimizer's plan memo: one pruned candidate list per table subset.
// A candidate is a small PlanEntry naming its method, its children
// (entries of already-pruned lists) and a payload with the method's own
// inputs. Each method has one cost function of a cardinality ratio: the
// ranking cost is that function at 1.0 over the children's stored costs,
// and the sensitivity re-cost applies it recursively at a grid ratio, so
// Recost(ref, 1.0) == cost by construction. Operator trees and labels are
// derived on demand, only for the plans that need them.

#ifndef ROBUSTQO_OPTIMIZER_PLAN_H_
#define ROBUSTQO_OPTIMIZER_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "exec/operator.h"
#include "exec/scan_ops.h"
#include "exec/star_ops.h"
#include "obs/plan_provenance.h"

namespace robustqo {
namespace opt {

/// The optimizer's output: an executable physical plan with its predicted
/// cost and a compact structural label for experiment classification.
struct PlannedQuery {
  exec::OperatorPtr root;
  /// Predicted execution cost (simulated seconds) under the estimator's
  /// cardinalities.
  double estimated_cost = 0.0;
  /// Predicted output rows of the plan root.
  double estimated_rows = 0.0;
  /// Predicted rows of the SPJ core (before aggregation / grouping /
  /// LIMIT decoration). This is the quantity the cardinality estimator
  /// actually produced, so q-error is measured against it.
  double estimated_spj_rows = 0.0;
  /// Compact structure label, e.g. "Agg(HJ(INLJ(part>lineitem),orders))".
  std::string label;
  /// Sensitivity of this plan choice across the selectivity posterior;
  /// `captured` is false unless it was planned with provenance_enabled.
  obs::PlanSensitivity sensitivity;
  /// Human-readable plan tree.
  std::string Explain() const { return root->TreeString(); }
};

/// Entry `index` of the pruned list of `subset` (a table bitmask).
struct PlanRef {
  uint32_t subset = 0;
  uint32_t index = 0;
};

enum class PlanMethod : uint8_t {
  kSeqScan,
  kIndexScan,
  kIndexIntersection,
  kHashJoin,
  kMergeJoin,
  kIndexNestedLoop,
  kStar,  ///< costed by the star strategy itself; no re-cost model
};

/// A candidate plan during enumeration.
struct PlanEntry {
  PlanMethod method = PlanMethod::kSeqScan;
  bool sort_left = false;   ///< merge join: a Sort feeds the left input
  bool sort_right = false;  ///< merge join: a Sort feeds the right input
  uint32_t payload = 0;
  PlanRef left;   ///< hash build / merge left / INLJ outer input
  PlanRef right;  ///< hash probe / merge right input
  double cost = 0.0;
  double rows = 0.0;
  /// Column the output is physically sorted on; empty when unsorted.
  std::string sort_order;
};

/// A dimension hash-joined onto a star strategy's semijoin output, built
/// from its filtered scan.
struct StarHashJoin {
  exec::DimSemiJoin dim;
  std::vector<std::string> columns;
  double dim_rows = 0.0;
  double rows = 0.0;
};

/// A plan method's own inputs; which fields are set depends on the method.
struct PlanPayload {
  std::string table;  ///< scanned table; INLJ inner; star fact table
  expr::ExprPtr predicate;  ///< on `table`; null = none
  std::vector<std::string> columns;  ///< scan / star fact output columns
  double table_rows = 0.0;           ///< scans: base-table rows
  std::vector<exec::IndexRange> ranges;  ///< index scans
  std::vector<double> range_rows;        ///< estimated rows per range
  /// Index intersection: RID-intersection survivors; INLJ: matching index
  /// entries; star: fact rows fetched.
  double fetches = 0.0;
  std::string left_key;   ///< joins: the left input's key column
  std::string right_key;  ///< joins: the right (INLJ: inner) key column
  std::vector<exec::DimSemiJoin> semis;   ///< star: semijoined dimensions
  std::vector<StarHashJoin> hash_joins;   ///< star: the rest, in order
};

/// Per-run plan memo.
struct PlanMemo {
  exec::CostModel cost_model = exec::CostModel::Default();
  std::vector<std::vector<PlanEntry>> lists;  ///< pruned lists by subset
  std::vector<PlanPayload> payloads;

  uint32_t AddPayload(PlanPayload payload) {
    payloads.push_back(std::move(payload));
    return static_cast<uint32_t>(payloads.size() - 1);
  }
  const PlanEntry& at(PlanRef ref) const {
    return lists[ref.subset][ref.index];
  }

  /// Cost of `entry` with every estimated cardinality scaled by `ratio`
  /// (a posterior selectivity over the planning-threshold selectivity).
  /// Children contribute their stored costs, or with `recost_children`
  /// their own cost at `ratio`. The ranking cost is Cost(entry).
  double Cost(const PlanEntry& entry, double ratio = 1.0,
              bool recost_children = false) const;
  /// Sensitivity re-cost of a memo entry's whole subtree; equals its
  /// ranking cost bit-for-bit at ratio 1.0. Star plans stay flat.
  double Recost(PlanRef ref, double ratio) const {
    return Cost(at(ref), ratio, /*recost_children=*/true);
  }

  /// Structure label, e.g. "HJ(Seq(part),Ix(lineitem.l_shipdate))".
  std::string Label(const PlanEntry& entry) const;
  /// The executable operator tree, annotated with planner row estimates.
  exec::OperatorPtr Build(const PlanEntry& entry) const;
};

}  // namespace opt
}  // namespace robustqo

#endif  // ROBUSTQO_OPTIMIZER_PLAN_H_
