// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Plan-choice provenance: *why* did the optimizer's winner beat its
// rivals, and how fragile is that choice across the selectivity
// posterior? At optimization time the optimizer snapshots the winning
// plan plus its top-K runner-up candidates, re-costs every one of them at
// a fixed grid of posterior quantiles (PARQO's judge-plans-by-the-whole-
// posterior lens; Trummer & Koch's (eps, delta)-stability when the winner
// dominates everywhere), and the serving layer files the result in the
// plan column of its obs::FingerprintLedger row. When a cached plan is
// re-planned (stale epoch, drift block, degraded lookup, plain eviction)
// the ledger also files a plan-diff record: old vs new plan, cost-curve
// delta, and the PlanCacheOutcome trigger.
//
// This file holds the record types and their per-record renderings.
// Strictly read-only with respect to plan choice: nothing here feeds back
// into optimization.

#ifndef ROBUSTQO_OBS_PLAN_PROVENANCE_H_
#define ROBUSTQO_OBS_PLAN_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace robustqo {
namespace obs {

/// One candidate plan's cost curve across the sensitivity quantile grid.
struct CandidateCurve {
  std::string label;
  /// Ranking cost at the planning threshold (what the optimizer compared).
  double cost = 0.0;
  double rows = 0.0;
  /// False when the candidate had no re-cost closure (e.g. star
  /// strategies): cost_at is then a flat copy of `cost`.
  bool curve_available = true;
  /// Re-costed value at each PlanSensitivity::grid quantile.
  std::vector<double> cost_at;
};

/// Sensitivity of one plan choice across the selectivity posterior.
struct PlanSensitivity {
  /// True when the plan was optimized with capture on
  /// (OptimizerOptions::provenance_enabled). The serving layer always
  /// captures; EXPLAIN ANALYZE renders its sensitivity section only for a
  /// captured sensitivity.
  bool captured = false;
  /// True when the posterior and curves were actually evaluated.
  bool available = false;
  std::string unavailable_reason;  ///< set when captured && !available
  std::string plan_label;          ///< the winner
  double threshold = 0.0;          ///< effective T at planning time
  std::vector<double> grid;        ///< posterior quantiles evaluated
  std::vector<double> selectivity; ///< posterior selectivity per quantile
  /// Winner first, then runner-ups in ranking order.
  std::vector<CandidateCurve> candidates;
  /// (eps, delta)-style stability: the winner dominates every rival at
  /// every grid point.
  bool stable = false;
  /// Worst gap to the per-quantile optimum across the grid, in percent.
  double max_regret_pct = 0.0;
  /// First posterior quantile (linearly interpolated between grid points)
  /// where some rival becomes cheaper than the winner; -1 when none.
  double crossover_quantile = -1.0;
  std::string crossover_rival;
  /// One-line human verdict, e.g. "winner within 4.2% of per-quantile
  /// optimum across p10-p95; crossover at p83 vs Seq(readings)".
  std::string verdict;
};

/// Computes stable / max_regret_pct / crossover / verdict from the curves.
/// Idempotent; call after filling grid, selectivity and candidates.
void FinalizeSensitivity(PlanSensitivity* s);

/// Label for a quantile, e.g. 0.83 -> "p83".
std::string QuantileLabel(double quantile);

/// Deterministic JSON object for one sensitivity (EXPLAIN ANALYZE's
/// `sensitivity` section).
std::string SensitivityJson(const PlanSensitivity& s);

/// Why one plan won: the provenance record filed per (statement
/// fingerprint, T%, estimator).
struct PlanProvenanceRecord {
  uint64_t fingerprint = 0;
  uint64_t threshold_bits = 0;  ///< T bit pattern (plan-cache key part)
  std::string estimator;
  uint64_t epoch = 0;           ///< statistics epoch at planning time
  uint64_t sequence = 0;        ///< recording order (assigned by the ledger)
  std::string plan_label;
  double estimated_cost = 0.0;
  double estimated_rows = 0.0;
  PlanSensitivity sensitivity;
};

/// The `.whyplan` winner line of `record` ("  winner: ... \n").
std::string WinnerLine(const PlanProvenanceRecord& record);

/// What changed when a key got re-planned.
struct PlanDiffRecord {
  uint64_t fingerprint = 0;
  std::string trigger;   ///< PlanCacheOutcomeName of the re-plan miss
  uint64_t sequence = 0; ///< recording order (assigned by the ledger)
  uint64_t old_epoch = 0;
  uint64_t new_epoch = 0;
  std::string old_label;
  std::string new_label;
  double old_cost = 0.0;
  double new_cost = 0.0;
  bool plan_changed = false;  ///< labels differ
  /// Winner cost curves before/after on the shared quantile grid (either
  /// may be empty when a side's sensitivity was unavailable).
  std::vector<double> grid;
  std::vector<double> old_curve;
  std::vector<double> new_curve;
  std::string old_verdict;
  std::string new_verdict;
};

/// The `.whyplan` body of `record`: winner, per-quantile cost table for
/// every retained candidate, verdict, then `diffs` (the fingerprint's
/// plan-diff history, oldest first).
std::string WhyplanText(const PlanProvenanceRecord& record,
                        const std::vector<const PlanDiffRecord*>& diffs);

struct PlanProvenanceStats {
  uint64_t recorded = 0;       ///< records accepted (insert or refresh)
  uint64_t evicted = 0;        ///< records dropped with their ledger row
  uint64_t diffs = 0;          ///< diff records accepted
  uint64_t diffs_evicted = 0;  ///< diffs dropped by the FIFO or their row
  uint64_t fragile = 0;        ///< recorded with a crossover
  uint64_t stable = 0;         ///< recorded with the stability flag
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_PLAN_PROVENANCE_H_
