// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Plan-choice provenance: *why* did the optimizer's winner beat its
// rivals, and how fragile is that choice across the selectivity
// posterior? At optimization time the optimizer snapshots the winning
// plan plus its top-K runner-up candidates, re-costs every one of them at
// a fixed grid of posterior quantiles (PARQO's judge-plans-by-the-whole-
// posterior lens; Trummer & Koch's (eps, delta)-stability when the winner
// dominates everywhere), and the serving layer files the result here —
// a bounded, epoch-stamped store keyed by the canonical plan-cache key.
// When a cached plan is re-planned (stale epoch, drift block, degraded
// lookup, plain eviction) the store also captures a plan-diff record:
// old vs new plan, cost-curve delta, and the PlanCacheOutcome trigger.
//
// Strictly read-only with respect to plan choice: nothing in this file
// feeds back into optimization. Like the FlightRecorder, the store is a
// plain data class — it always works when used directly — and harnesses
// Absorb() per-run stores in run order so reports stay byte-identical at
// any thread count.

#ifndef ROBUSTQO_OBS_PLAN_PROVENANCE_H_
#define ROBUSTQO_OBS_PLAN_PROVENANCE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

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
  /// True when a capture was attempted at all (provenance enabled); the
  /// EXPLAIN sections render only captured sensitivities so disabled
  /// output is byte-identical to pre-provenance builds.
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

/// Deterministic JSON object for one sensitivity (EXPLAIN's `sensitivity`
/// section and the store's record dumps share the byte format).
std::string SensitivityJson(const PlanSensitivity& s);

/// Why one plan won: the provenance record filed per plan-cache key.
struct PlanProvenanceRecord {
  uint64_t fingerprint = 0;
  uint64_t threshold_bits = 0;  ///< T bit pattern (plan-cache key part)
  std::string estimator;
  uint64_t epoch = 0;           ///< statistics epoch at planning time
  uint64_t sequence = 0;        ///< recording order (assigned by the store)
  std::string plan_label;
  double estimated_cost = 0.0;
  double estimated_rows = 0.0;
  std::string tag;              ///< absorption provenance ("run=3")
  PlanSensitivity sensitivity;
};

/// The `.whyplan` winner line of `record` ("  winner: ... \n").
std::string WinnerLine(const PlanProvenanceRecord& record);

/// What changed when a key got re-planned.
struct PlanDiffRecord {
  uint64_t fingerprint = 0;
  std::string trigger;   ///< PlanCacheOutcomeName of the re-plan miss
  uint64_t sequence = 0; ///< recording order (assigned by the store)
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
  std::string tag;
};

struct PlanProvenanceConfig {
  bool enabled = true;
  /// LRU bound on provenance records (keyed by plan-cache key).
  size_t capacity = 128;
  /// FIFO bound on plan-diff records.
  size_t diff_capacity = 64;
};

struct PlanProvenanceStats {
  uint64_t recorded = 0;       ///< records accepted (insert or refresh)
  uint64_t evicted = 0;        ///< records dropped by the LRU bound
  uint64_t diffs = 0;          ///< diff records accepted
  uint64_t diffs_evicted = 0;  ///< diff records dropped by the FIFO bound
  uint64_t absorbed = 0;       ///< records + diffs taken from other stores
  uint64_t fragile = 0;        ///< recorded with a crossover
  uint64_t stable = 0;         ///< recorded with the stability flag
};

/// Bounded store of plan provenance + plan-diff records. Not thread-safe;
/// the serving layer records from its sequential PLAN phase and harnesses
/// merge per-run stores with Absorb() in run order.
class PlanProvenanceStore {
 public:
  explicit PlanProvenanceStore(PlanProvenanceConfig config = {});

  /// Runtime toggle (`SET PROVENANCE ON|OFF`): a disabled store drops
  /// offers and publishes nothing, so disabled output is byte-identical
  /// to a build without the store.
  bool enabled() const { return config_.enabled; }
  void set_enabled(bool enabled) { config_.enabled = enabled; }

  /// Files one record under (fingerprint, threshold_bits, estimator).
  /// Re-recording an existing key refreshes it (and its LRU position).
  void Record(PlanProvenanceRecord record);

  /// Files one plan-diff record.
  void RecordDiff(PlanDiffRecord diff);

  /// Newest record for `fingerprint` across thresholds/estimators
  /// (nullptr when none). Pointers are invalidated by the next mutation.
  const PlanProvenanceRecord* Find(uint64_t fingerprint) const;

  /// Newest record overall (nullptr when empty).
  const PlanProvenanceRecord* Latest() const;

  /// Records in recording order (oldest first).
  std::vector<const PlanProvenanceRecord*> Snapshot() const;
  /// Diff records in recording order (oldest first).
  std::vector<const PlanDiffRecord*> Diffs() const;

  /// Moves every record and diff of `other` into this store in recording
  /// order, prefixing tags with `tag` ("tag" or "tag/existing"), then
  /// clears `other`. Harness aggregation: absorbing per-run stores in run
  /// order makes the merged report independent of worker scheduling.
  void Absorb(PlanProvenanceStore&& other, const std::string& tag);

  /// One line per record: the deterministic summary block.
  std::string ReportText() const;

  /// The `.whyplan` body for one fingerprint: winner, per-quantile cost
  /// table for every retained candidate, verdict, and the fingerprint's
  /// plan-diff history. Empty-store/miss cases return a one-line notice.
  std::string ReportFor(uint64_t fingerprint) const;

  /// Deterministic JSON dump (config, stats, records, diffs).
  std::string ToJson() const;

  /// Chrome trace_event JSON: one counter track ("ph":"C") per record —
  /// track name "plancost <fingerprint hex> T=<threshold>", one sample
  /// per grid quantile (ts = quantile percent), one numeric series per
  /// retained candidate. Loadable next to the flight-recorder lanes.
  std::string ToChromeTrace() const;

  /// Syncs optimizer.provenance.* / optimizer.sensitivity.* series into
  /// `metrics` (no-op when null or the store is disabled).
  void PublishMetrics(MetricsRegistry* metrics) const;

  void Clear();

  size_t size() const { return records_.size(); }
  const PlanProvenanceStats& stats() const { return stats_; }
  const PlanProvenanceConfig& config() const { return config_; }

 private:
  struct Key {
    uint64_t fingerprint = 0;
    uint64_t threshold_bits = 0;
    std::string estimator;
    bool operator<(const Key& o) const {
      if (fingerprint != o.fingerprint) return fingerprint < o.fingerprint;
      if (threshold_bits != o.threshold_bits) {
        return threshold_bits < o.threshold_bits;
      }
      return estimator < o.estimator;
    }
  };

  PlanProvenanceConfig config_;
  PlanProvenanceStats stats_;
  std::map<Key, PlanProvenanceRecord> records_;
  std::deque<PlanDiffRecord> diffs_;
  uint64_t next_sequence_ = 0;
  /// Most recently recorded crossover quantile (-1 until one is seen);
  /// exported as the optimizer.sensitivity.crossover_quantile gauge.
  double last_crossover_ = -1.0;
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_PLAN_PROVENANCE_H_
