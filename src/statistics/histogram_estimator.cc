#include "statistics/histogram_estimator.h"

#include <optional>

#include "expr/analysis.h"
#include "statistics/magic.h"
#include "util/string_util.h"

namespace robustqo {
namespace stats {

namespace {

// The single table among `tables` owning every column of `conjunct`;
// nullopt if the columns span tables or belong to none of them.
std::optional<std::string> OwnerTable(const storage::Catalog& catalog,
                                      const std::set<std::string>& tables,
                                      const expr::Expr& conjunct) {
  std::set<std::string> columns;
  conjunct.CollectColumns(&columns);
  if (columns.empty()) return std::nullopt;
  std::optional<std::string> owner;
  for (const std::string& column : columns) {
    std::optional<std::string> this_owner;
    for (const std::string& table : tables) {
      const storage::Table* t = catalog.GetTable(table);
      if (t != nullptr && t->schema().HasColumn(column)) {
        this_owner = table;
        break;
      }
    }
    if (!this_owner.has_value()) return std::nullopt;
    if (owner.has_value() && *owner != *this_owner) return std::nullopt;
    owner = this_owner;
  }
  return owner;
}

// Selectivity of one conjunct using the histogram on its column, AVI-style.
double ConjunctSelectivity(const StatisticsCatalog& statistics,
                           const std::string& table,
                           const expr::ExprPtr& conjunct) {
  auto range = expr::TryExtractColumnRange(conjunct);
  if (!range.has_value()) {
    // Non-sargable (arithmetic, LIKE, OR, ...): magic number.
    return kMagicUnknownSelectivity;
  }
  const EquiDepthHistogram* hist =
      statistics.GetHistogram(table, range->column);
  if (hist == nullptr) {
    return range->IsPoint() ? kMagicEqualitySelectivity
                            : kMagicRangeSelectivity;
  }
  if (range->IsPoint()) return hist->EstimateEqualSelectivity(*range->lo);
  return hist->EstimateRangeSelectivity(range->lo, range->hi);
}

}  // namespace

Result<double> HistogramEstimator::EstimateTableSelectivity(
    const std::string& table, const expr::ExprPtr& predicate) {
  if (predicate == nullptr) return 1.0;
  double selectivity = 1.0;
  for (const auto& conjunct : expr::SplitConjuncts(predicate)) {
    selectivity *=
        ConjunctSelectivity(*statistics_, table, conjunct);  // AVI product
  }
  return selectivity;
}

Result<double> HistogramEstimator::EstimateDistinctValues(
    const std::string& table, const std::string& column,
    const EstimationContext& /*context*/) {
  const EquiDepthHistogram* hist = statistics_->GetHistogram(table, column);
  if (hist == nullptr) {
    return Status::NotFound("no histogram on " + table + "." + column);
  }
  return static_cast<double>(hist->TotalDistinct());
}

Result<double> HistogramEstimator::EstimateRows(
    const CardinalityRequest& request, const EstimationContext& context) {
  const storage::Catalog& catalog = statistics_->catalog();
  auto root = catalog.FindRootTable(request.tables);
  if (!root.ok()) return root.status();
  const storage::Table* root_table = catalog.GetTable(root.value());
  double rows = static_cast<double>(root_table->num_rows());

  if (request.predicate == nullptr) return rows;

  // AVI across conjuncts; the containment assumption makes each FK join
  // cardinality-preserving on the root side, so per-table selectivities
  // simply multiply into the root row count.
  const auto conjuncts = expr::SplitConjuncts(request.predicate);
  for (const auto& conjunct : conjuncts) {
    auto owner = OwnerTable(catalog, request.tables, *conjunct);
    const std::string table_for_stats = owner.value_or(root.value());
    const double sel =
        ConjunctSelectivity(*statistics_, table_for_stats, conjunct);
    rows *= sel;
    if (context.tracer != nullptr) {
      context.tracer->Event("estimator", "histogram",
                            {{"tables", table_for_stats},
                             {"predicate", conjunct->ToString()},
                             {"source", "histogram-avi"},
                             {"selectivity", obs::AttrF(sel)}});
    }
  }
  if (context.tracer != nullptr) {
    std::vector<std::string> names(request.tables.begin(),
                                   request.tables.end());
    context.tracer->Event("estimator", "histogram",
                          {{"tables", StrJoin(names, ",")},
                           {"predicate", request.predicate->ToString()},
                           {"source", "histogram-avi"},
                           {"conjuncts", obs::AttrU64(conjuncts.size())},
                           {"est_rows", obs::AttrF(rows)}});
  }
  return rows;
}

}  // namespace stats
}  // namespace robustqo
