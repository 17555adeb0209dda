#include "optimizer/plan.h"

#include <algorithm>
#include <memory>

#include "exec/join_ops.h"
#include "exec/sort_op.h"
#include "util/string_util.h"

namespace robustqo {
namespace opt {

using exec::OperatorPtr;

double PlanMemo::Cost(const PlanEntry& entry, double ratio,
                      bool recost_children) const {
  const exec::CostModel& cm = cost_model;
  const PlanPayload& p = payloads[entry.payload];
  auto child_cost = [&](PlanRef ref) {
    return recost_children ? Cost(at(ref), ratio, true) : at(ref).cost;
  };
  // Index entries a range touches: its rows, capped at the table size.
  auto entries = [&](double range_rows) {
    return p.table_rows *
           std::min(1.0, range_rows * ratio / std::max(1.0, p.table_rows));
  };
  const double rows = entry.rows * ratio;
  switch (entry.method) {
    case PlanMethod::kSeqScan:
      return exec::SeqScanCost(cm, p.table_rows, rows);
    case PlanMethod::kIndexScan: {
      const double e = entries(p.range_rows[0]);
      return exec::IndexRangeScanCost(cm, e, e, rows);
    }
    case PlanMethod::kIndexIntersection: {
      double total = 0.0;
      for (double range_rows : p.range_rows) total += entries(range_rows);
      return exec::IndexIntersectionCost(cm, static_cast<int>(p.ranges.size()),
                                         total, p.fetches * ratio, rows);
    }
    case PlanMethod::kHashJoin:
      return child_cost(entry.left) + child_cost(entry.right) +
             exec::HashJoinCost(cm, at(entry.left).rows * ratio,
                                at(entry.right).rows * ratio, rows);
    case PlanMethod::kMergeJoin: {
      const double left_rows = at(entry.left).rows * ratio;
      const double right_rows = at(entry.right).rows * ratio;
      double c = child_cost(entry.left) + child_cost(entry.right) +
                 exec::MergeJoinCost(cm, left_rows, right_rows, rows);
      if (entry.sort_left) c += exec::SortCost(cm, left_rows);
      if (entry.sort_right) c += exec::SortCost(cm, right_rows);
      return c;
    }
    case PlanMethod::kIndexNestedLoop:
      return child_cost(entry.left) +
             exec::IndexNestedLoopJoinCost(cm, at(entry.left).rows * ratio,
                                           p.fetches * ratio,
                                           p.fetches * ratio, rows);
    case PlanMethod::kStar:
      break;
  }
  return entry.cost;
}

std::string PlanMemo::Label(const PlanEntry& entry) const {
  const PlanPayload& p = payloads[entry.payload];
  std::vector<std::string> names;
  switch (entry.method) {
    case PlanMethod::kSeqScan:
      return "Seq(" + p.table + ")";
    case PlanMethod::kIndexScan:
      return "Ix(" + p.table + "." + p.ranges[0].column + ")";
    case PlanMethod::kIndexIntersection:
      for (const exec::IndexRange& range : p.ranges) {
        names.push_back(range.column);
      }
      return "IxSect(" + p.table + ":" + StrJoin(names, "&") + ")";
    case PlanMethod::kHashJoin:
      return "HJ(" + Label(at(entry.left)) + "," + Label(at(entry.right)) +
             ")";
    case PlanMethod::kMergeJoin: {
      std::string left = Label(at(entry.left));
      std::string right = Label(at(entry.right));
      if (entry.sort_left) left = "Sort(" + left + ")";
      if (entry.sort_right) right = "Sort(" + right + ")";
      return "MJ(" + left + "," + right + ")";
    }
    case PlanMethod::kIndexNestedLoop:
      return "INLJ(" + Label(at(entry.left)) + ">" + p.table + ")";
    case PlanMethod::kStar:
      break;
  }
  for (const exec::DimSemiJoin& semi : p.semis) {
    names.push_back(semi.dim_table);
  }
  std::string label = "Star(" + p.table + ";" + StrJoin(names, ",") + ")";
  for (const StarHashJoin& join : p.hash_joins) {
    label = "HJ(Seq(" + join.dim.dim_table + ")," + label + ")";
  }
  return label;
}

OperatorPtr PlanMemo::Build(const PlanEntry& entry) const {
  const PlanPayload& p = payloads[entry.payload];
  OperatorPtr op;
  switch (entry.method) {
    case PlanMethod::kSeqScan:
      op = std::make_unique<exec::SeqScanOp>(p.table, p.predicate, p.columns);
      break;
    case PlanMethod::kIndexScan:
      op = std::make_unique<exec::IndexRangeScanOp>(p.table, p.ranges[0],
                                                    p.predicate, p.columns);
      break;
    case PlanMethod::kIndexIntersection:
      op = std::make_unique<exec::IndexIntersectionOp>(p.table, p.ranges,
                                                       p.predicate, p.columns);
      break;
    case PlanMethod::kHashJoin:
      op = std::make_unique<exec::HashJoinOp>(Build(at(entry.left)),
                                              Build(at(entry.right)),
                                              p.left_key, p.right_key);
      break;
    case PlanMethod::kMergeJoin: {
      OperatorPtr left = Build(at(entry.left));
      OperatorPtr right = Build(at(entry.right));
      if (entry.sort_left) {
        left = std::make_unique<exec::SortOp>(std::move(left), p.left_key);
        left->set_planner_estimated_rows(at(entry.left).rows);
      }
      if (entry.sort_right) {
        right = std::make_unique<exec::SortOp>(std::move(right), p.right_key);
        right->set_planner_estimated_rows(at(entry.right).rows);
      }
      op = std::make_unique<exec::MergeJoinOp>(
          std::move(left), std::move(right), p.left_key, p.right_key);
      break;
    }
    case PlanMethod::kIndexNestedLoop:
      op = std::make_unique<exec::IndexNestedLoopJoinOp>(
          Build(at(entry.left)), p.left_key, p.table, p.right_key,
          p.predicate);
      break;
    case PlanMethod::kStar:
      op = std::make_unique<exec::StarSemiJoinOp>(p.table, p.semis,
                                                  p.predicate, p.columns);
      op->set_planner_estimated_rows(p.fetches);
      for (const StarHashJoin& join : p.hash_joins) {
        auto scan = std::make_unique<exec::SeqScanOp>(
            join.dim.dim_table, join.dim.dim_predicate, join.columns);
        scan->set_planner_estimated_rows(join.dim_rows);
        op = std::make_unique<exec::HashJoinOp>(
            std::move(scan), std::move(op), join.dim.dim_pk_column,
            join.dim.fact_fk_column);
        op->set_planner_estimated_rows(join.rows);
      }
      return op;
  }
  op->set_planner_estimated_rows(entry.rows);
  return op;
}

}  // namespace opt
}  // namespace robustqo
