// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The feedback join between EXPLAIN ANALYZE and a fingerprint ledger's
// quality columns: an AnalyzedPlan carries the fingerprinted planning-time
// estimates (PredicateReport) and the executed actuals; RecordAnalyzedPlan
// pairs them up and feeds the ledger one observation per comparable
// estimate, keyed by predicate fingerprint. Sits in workload because the
// join needs core (AnalyzedPlan), which obs must not depend on.

#ifndef ROBUSTQO_WORKLOAD_QUALITY_REPORT_H_
#define ROBUSTQO_WORKLOAD_QUALITY_REPORT_H_

#include <cstddef>

#include "core/explain_analyze.h"
#include "obs/fingerprint_ledger.h"

namespace robustqo {
namespace workload {

/// Joins `plan`'s planning-time estimates with its execution actuals and
/// records them into `ledger`. The comparable estimate is the full
/// table-set row prediction (the "synopsis" or "independence" event,
/// whose `tables` covers every joined table): its est_rows pairs
/// with the executed SPJ-core row count. Returns the number of
/// observations recorded (0 when the plan was not executed, carries no
/// fingerprints, or `ledger` is null).
size_t RecordAnalyzedPlan(const core::AnalyzedPlan& plan,
                          obs::FingerprintLedger* ledger);

}  // namespace workload
}  // namespace robustqo

#endif  // ROBUSTQO_WORKLOAD_QUALITY_REPORT_H_
