#include "workload/quality_report.h"

#include <algorithm>
#include <string>

namespace robustqo {
namespace workload {

namespace {

size_t CountTables(const std::string& tables) {
  if (tables.empty()) return 0;
  return static_cast<size_t>(
             std::count(tables.begin(), tables.end(), ',')) + 1;
}

}  // namespace

size_t RecordAnalyzedPlan(const core::AnalyzedPlan& plan,
                          obs::FingerprintLedger* ledger) {
  if (ledger == nullptr || !plan.execution_error.empty()) return 0;

  // The executed actual (SPJ-core rows) corresponds to the estimate over
  // the FULL table set; per-table selectivity factors have no matching
  // actual of their own. Pick the fingerprinted row estimate covering the
  // most tables — "synopsis" when the covering synopsis was readable,
  // "independence" when the estimator composed per-table evidence.
  const core::PredicateReport* best = nullptr;
  size_t best_tables = 0;
  for (const core::PredicateReport& p : plan.predicates) {
    if (p.fingerprint == 0 || p.estimated_rows < 0.0) continue;
    const size_t n = CountTables(p.tables);
    if (best == nullptr || n > best_tables) {
      best = &p;
      best_tables = n;
    }
  }
  if (best == nullptr) return 0;

  obs::QualityObservation observation;
  observation.label = "{" + best->tables + "} :: " + best->predicate;
  observation.estimated_rows = best->estimated_rows;
  observation.actual_rows = static_cast<double>(plan.actual_spj_rows);
  observation.confidence_threshold = best->confidence_threshold;
  ledger->RecordQuality(best->fingerprint, observation);
  return 1;
}

}  // namespace workload
}  // namespace robustqo
