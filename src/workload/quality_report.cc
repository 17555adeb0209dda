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
  return RecordAnalyzedPlan(plan, ledger, nullptr, 0);
}

size_t RecordAnalyzedPlan(const core::AnalyzedPlan& plan,
                          obs::FingerprintLedger* ledger,
                          learn::FeedbackStore* feedback,
                          uint64_t statistics_epoch) {
  if (ledger == nullptr && feedback == nullptr) return 0;
  if (!plan.execution_error.empty()) return 0;

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

  const std::string label = "{" + best->tables + "} :: " + best->predicate;
  if (feedback != nullptr && best->selectivity > 0.0) {
    // Recover the root row count the estimate was scaled by, then express
    // the executed actual in the same selectivity currency the estimator
    // consumes. est_rows = selectivity * root_rows, so root_rows falls out
    // of the report itself — no second catalog lookup, no skew if the
    // table changed since planning.
    const double root_rows = best->estimated_rows / best->selectivity;
    if (root_rows > 0.0) {
      const double actual_selectivity =
          static_cast<double>(plan.actual_spj_rows) / root_rows;
      // A fired feedback fault simply drops the observation.
      (void)feedback->Observe(best->fingerprint, label, best->selectivity,
                              actual_selectivity, statistics_epoch);
    }
  }
  if (ledger == nullptr) return 0;

  obs::QualityObservation observation;
  observation.label = label;
  observation.estimated_rows = best->estimated_rows;
  observation.actual_rows = static_cast<double>(plan.actual_spj_rows);
  observation.confidence_threshold = best->confidence_threshold;
  ledger->RecordQuality(best->fingerprint, observation);
  return 1;
}

}  // namespace workload
}  // namespace robustqo
