// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// FingerprintLedger: one row per statement fingerprint holding what the
// serving layer observes while planning and executing that statement, so
// the paper's T% promise — plans picked at cdf⁻¹(T%) keep realized cost
// predictable — is checked per statement in one place. A row holds four
// column groups:
//
//   * quality: the estimated-vs-actual row counts of executed reads — a
//     q-error quantile sketch and exact maximum, posterior-calibration
//     tallies (the T% upper bound "held" when the actual came in at or
//     under the estimate; over a healthy workload the hit-rate should
//     track T), and a drift detector comparing the median q-error of a
//     trailing window against the frozen baseline (first) window. A
//     profile whose recent median regresses by `drift_factor` or more is
//     flagged drifted: data moved underneath stale statistics. Record
//     keeps the flagged set current, so Drifted() costs O(flagged);
//   * SLO: queue wait (admission waves waited, at kWaveDelaySeconds per
//     wave), service time (metered execution seconds plus
//     kPlanChargeSeconds when the request ran the optimizer) and realized
//     regret — how far the plan's metered cost exceeded the cdf⁻¹(T%)
//     estimate it was chosen by (PlannedQuery::estimated_cost), in the one
//     currency both share. The two charges are fixed simulated seconds,
//     not measured wall time;
//   * tables: what the statement reads, so a drift flag routes the right
//     tables to the statistics rebuild;
//   * plan: why the plan won — the newest provenance record
//     (obs/plan_provenance.h) per (T%, estimator) the statement was
//     planned at. Re-planning a statement that already holds a record
//     files a plan diff; the ledger keeps the newest kMaxPlanDiffs of
//     them;
//   * exemplars: the evidence behind the SLO column — the span tree of
//     the row's slowest successful request (a strictly slower one
//     replaces it; a tie keeps the incumbent) and of its latest incident
//     (a typed failure, a governor trip or a fault fire). Record files
//     them when the caller passes the request's trace. The shell's
//     `.blackbox` lists them and `.blackbox trace` renders them as
//     Chrome trace lanes.
//
// The ledger keeps at most kMaxRows rows. Recording into a row (Record,
// RecordQuality, RecordPlan) makes it the most recent; a new row past the
// bound evicts the least recently recorded one in O(log n), together with
// its drift flag, tables, plans, diffs and exemplars. Ad-hoc traffic with
// per-request literals opens a row per request, so without the bound the
// ledger would grow with the request count.
//
// The ledger also keeps the global and per-session SLO scopes: it is the
// one per-request sink of the serving layer's sequential reduce phase,
// which records in admission order, so every report and published
// series (estimator.quality.*, server.slo.*, optimizer.regret.*,
// optimizer.provenance.* and optimizer.sensitivity.*) is byte-identical at
// any RQO_THREADS setting.
//
// Standalone ledgers that only call RecordQuality (the shell's EXPLAIN
// ANALYZE monitor, keyed by predicate fingerprint) fill just the quality
// columns. The join from EXPLAIN ANALYZE reports into quality observations
// lives in workload/quality_report.h.

#ifndef ROBUSTQO_OBS_FINGERPRINT_LEDGER_H_
#define ROBUSTQO_OBS_FINGERPRINT_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/plan_provenance.h"
#include "obs/quantile_sketch.h"
#include "obs/trace.h"

namespace robustqo {
namespace obs {

struct QualityConfig {
  /// Observations forming a profile's frozen baseline window.
  size_t baseline_window = 32;
  /// Trailing observations compared against the baseline.
  size_t recent_window = 32;
  /// Flag when recent median q-error >= drift_factor * baseline median.
  double drift_factor = 4.0;
  /// Minimum observations in each window before drift is evaluated.
  size_t min_observations = 8;
};

/// One estimate-vs-actual comparison for a fingerprinted estimate.
struct QualityObservation {
  /// Human-readable identity, first occurrence wins (e.g. "tables :: pred").
  std::string label;
  double estimated_rows = 0.0;
  double actual_rows = 0.0;
  /// The T at which the posterior was inverted; 0 = not a confidence-bound
  /// estimate (no calibration tally).
  double confidence_threshold = 0.0;
};

/// Raw inputs of one finished request; the ledger derives the charged and
/// regret values.
struct RequestObservation {
  uint64_t fingerprint = 0;
  std::string session_label;
  bool failed = false;
  bool cache_hit = false;
  /// INSERT/UPDATE/DELETE: consults neither the plan cache nor the
  /// optimizer.
  bool dml = false;
  uint64_t queue_waves = 0;
  /// Simulated execution seconds actually metered (0 when failed).
  double actual_seconds = 0.0;
  /// The chosen plan's estimated cost at selection time (the cdf⁻¹(T%)
  /// promise); 0 when the request never got a plan.
  double estimated_seconds = 0.0;
  /// Tables a read statement reads (empty for writes and failed plans).
  std::set<std::string> tables;
};

/// One finished request's span tree plus the summary fields the exemplar
/// listings show without walking the events.
struct RequestTrace {
  /// Dense per-service request ordinal (1-based), assigned at submit.
  uint64_t request_id = 0;
  uint64_t session_id = 0;
  std::string session_label;
  /// "OK" or the typed StatusCode name of the failure.
  std::string status = "OK";
  bool failed = false;
  bool governor_tripped = false;
  /// Armed fault-site firings observed by this request's injector.
  uint64_t fault_fires = 0;
  /// Plan-cache outcome: "hit", "miss", "stale_epoch", "degraded_fault"
  /// or "dml".
  std::string cache_outcome;
  uint64_t waves_waited = 0;
  /// Simulated service seconds (ServiceSeconds; 0 when planning failed).
  double service_seconds = 0.0;
  std::vector<TraceEvent> events;

  /// Whether this trace replaces its row's incident exemplar.
  bool IsIncident() const {
    return failed || governor_tripped || fault_fires > 0;
  }
};

/// Snapshot of one fingerprint's quality columns.
struct FingerprintQuality {
  uint64_t fingerprint = 0;
  std::string label;
  uint64_t observations = 0;
  double q_p50 = 0.0;
  double q_p90 = 0.0;
  double q_p99 = 0.0;
  double q_max = 0.0;
  uint64_t bound_checks = 0;
  uint64_t bound_holds = 0;
  /// bound_holds / bound_checks (0 when never checked).
  double bound_hit_rate = 0.0;
  /// Mean confidence threshold over the checked estimates — the value the
  /// hit-rate should track.
  double mean_threshold = 0.0;
  double baseline_median_q = 0.0;
  double recent_median_q = 0.0;
  /// recent / baseline median (0 until both windows are evaluable).
  double drift_ratio = 0.0;
  bool drifted = false;
};

/// One SLO scope's accumulated signals. Queue wait is recorded for every
/// observed request (queueing happens whether or not execution succeeds);
/// service and regret only for successful ones.
struct SloScope {
  QuantileSketch queue_wait;
  QuantileSketch service;
  QuantileSketch regret;
  uint64_t observed = 0;
  uint64_t failed = 0;
  /// Successful requests whose actual exceeded the estimate.
  uint64_t regret_positive = 0;
  double worst_regret_ratio = 0.0;
};

class FingerprintLedger {
 public:
  /// Worst sessions/fingerprints listed in SloReportText.
  static constexpr size_t kReportTopK = 3;
  /// Rows kept; the least recently recorded row is evicted past it.
  static constexpr size_t kMaxRows = 128;
  /// Plan diffs kept, newest first out of a FIFO.
  static constexpr size_t kMaxPlanDiffs = 64;
  /// Simulated queueing delay charged per admission wave waited.
  static constexpr double kWaveDelaySeconds = 0.05;
  /// Simulated planning charge for a request that ran the optimizer: a
  /// read whose plan missed the cache. Writes never plan.
  static constexpr double kPlanChargeSeconds = 0.25;

  explicit FingerprintLedger(QualityConfig quality = {});

  /// Rows currently held (at most kMaxRows).
  size_t size() const { return rows_.size(); }

  // ---- Recording ----

  /// Records one finished request into the global, session and
  /// fingerprint SLO scopes, for an executed read `quality` into the same
  /// row, and `trace` (when non-null) as the row's exemplars. Call in a
  /// deterministic order (the service's reduce phase guarantees admission
  /// order).
  void Record(const RequestObservation& request,
              const QualityObservation* quality = nullptr,
              const RequestTrace* trace = nullptr);
  /// Records only the quality columns of `fingerprint` (0 is ignored).
  void RecordQuality(uint64_t fingerprint,
                     const QualityObservation& observation);

  /// Tables the statement reads (empty when unknown).
  const std::set<std::string>& Tables(uint64_t fingerprint) const;

  /// The `.fp` view: one row's SLO, quality, table and plan columns (the
  /// winner line of its newest plan record), plus one line per exemplar
  /// the row holds.
  std::string RowText(uint64_t fingerprint) const;

  /// Publishes the estimator.quality.*, server.slo.*, optimizer.regret.*,
  /// optimizer.provenance.* and optimizer.sensitivity.* series (no-op on
  /// null). Idempotent: counters sync to absolute values, sketches are
  /// rebuilt from state.
  void PublishMetrics(MetricsRegistry* metrics) const;

  // ---- Quality columns ----

  /// Quality observations the held rows took since the last ResetQuality.
  uint64_t observation_count() const { return observation_count_; }
  /// Rows with at least one quality observation since the last
  /// ResetQuality.
  size_t quality_fingerprints() const { return quality_fingerprints_; }
  /// Per-fingerprint snapshots ordered by fingerprint (deterministic).
  std::vector<FingerprintQuality> Snapshot() const;
  /// The flagged subset of Snapshot(), summarizing only flagged profiles.
  std::vector<FingerprintQuality> Drifted() const;
  /// Aligned text drift report.
  std::string QualityReportText() const;
  /// Publishes only the estimator.quality.* family.
  void PublishQualityMetrics(MetricsRegistry* metrics) const;
  /// Fresh statistics: clears the quality columns and the drifted set.
  /// SLO scopes and tables survive.
  void ResetQuality();

  // ---- SLO columns ----

  /// The charged values Record derives — the one charging rule, shared
  /// with the service's span attributes and the traffic harness's report
  /// so all three report identical numbers.
  static double QueueWaitSeconds(uint64_t queue_waves) {
    return static_cast<double>(queue_waves) * kWaveDelaySeconds;
  }
  /// Metered execution seconds, plus the planning charge only when the
  /// request ran the optimizer (neither a plan-cache hit nor a write).
  static double ServiceSeconds(double actual_seconds, bool cache_hit,
                               bool dml) {
    return actual_seconds + (cache_hit || dml ? 0.0 : kPlanChargeSeconds);
  }
  const SloScope& global() const { return global_; }
  /// nullptr when the scope has never been observed.
  const SloScope* SessionScope(const std::string& label) const;
  const SloScope* FingerprintScope(uint64_t fingerprint) const;
  size_t sessions_tracked() const { return sessions_.size(); }
  /// Rows with at least one SLO observation.
  size_t slo_fingerprints() const { return slo_fingerprints_; }
  /// Fixed-precision text block: global quantiles and the worst
  /// sessions/fingerprints by tail service time / tail regret.
  std::string SloReportText() const;

  // ---- Exemplars ----

  /// One held exemplar; a request that is both its row's slowest and its
  /// latest incident is one Exemplar with both flags set.
  struct Exemplar {
    uint64_t fingerprint = 0;
    const RequestTrace* trace = nullptr;
    bool slowest = false;
    bool incident = false;
  };
  /// Every held exemplar in request order. Pointers are invalidated by the
  /// next mutation.
  std::vector<Exemplar> Exemplars() const;
  /// Aligned text listing for the shell's `.blackbox`.
  std::string ExemplarText() const;
  /// Chrome trace_event JSON for `.blackbox trace`: one lane per
  /// exemplar (pid = session, tid = request, named "request N [status]"),
  /// lanes in (session, request) order.
  std::string ExemplarChromeTrace() const;

  // ---- Plan columns ----

  /// Files `record` in its fingerprint's row, replacing the row's record
  /// for the same (threshold_bits, estimator). When the row already holds
  /// a record, also files a plan diff against the newest one, naming
  /// `trigger`, and returns it; otherwise nullptr.
  /// Returned pointers are invalidated by the next mutation.
  const PlanDiffRecord* RecordPlan(PlanProvenanceRecord record,
                                   const std::string& trigger);
  /// Newest plan record of `fingerprint` across thresholds and estimators
  /// (nullptr when none).
  const PlanProvenanceRecord* FindPlan(uint64_t fingerprint) const;
  /// Newest plan record overall (nullptr when none).
  const PlanProvenanceRecord* LatestPlan() const;
  /// Plan records held, summed over rows.
  size_t plan_count() const { return plan_count_; }
  const PlanProvenanceStats& plan_stats() const { return plan_stats_; }
  /// Plan records and diffs in recording order (oldest first).
  std::vector<const PlanProvenanceRecord*> PlanSnapshot() const;
  const std::deque<PlanDiffRecord>& plan_diffs() const { return plan_diffs_; }
  /// One line per plan record and diff: the deterministic summary block.
  std::string PlanReportText() const;
  /// The `.whyplan` body for one fingerprint (WhyplanText of its newest
  /// record and its diffs); a one-line notice when the row holds none.
  std::string PlanReportFor(uint64_t fingerprint) const;

 private:
  struct QualityProfile {
    std::string label;
    uint64_t observations = 0;
    QuantileSketch q_sketch;
    double q_max = 0.0;
    uint64_t bound_checks = 0;
    uint64_t bound_holds = 0;
    double threshold_sum = 0.0;
    std::vector<double> baseline;  // first baseline_window q-errors
    std::deque<double> recent;     // trailing recent_window q-errors
  };

  /// A row's plan records are keyed by (threshold_bits, estimator).
  using PlanKey = std::pair<uint64_t, std::string>;

  struct Row {
    QualityProfile quality;
    SloScope slo;
    std::set<std::string> tables;
    std::map<PlanKey, PlanProvenanceRecord> plans;
    std::optional<RequestTrace> slowest;
    std::optional<RequestTrace> incident;
    /// Key of this row in recency_.
    uint64_t last_recorded = 0;
  };

  /// The row of `fingerprint`, created if absent and made the most
  /// recently recorded; creating a row past kMaxRows evicts the least
  /// recently recorded one.
  Row& Touch(uint64_t fingerprint);
  void Evict(uint64_t fingerprint);
  /// Newest record of `row` (nullptr when it holds none).
  static const PlanProvenanceRecord* NewestPlan(const Row& row);
  /// Appends `row`'s exemplars to `out`: the incident, then the slowest
  /// unless it is the same request.
  static void AppendExemplars(uint64_t fingerprint, const Row& row,
                              std::vector<Exemplar>* out);
  /// One exemplar line: `[reasons]`, the fingerprint when asked, then the
  /// request's summary fields.
  std::string ExemplarLine(const Exemplar& exemplar,
                           bool with_fingerprint) const;

  void RecordQualityInto(uint64_t fingerprint,
                         const QualityObservation& observation, Row* row);
  FingerprintQuality Summarize(uint64_t fingerprint,
                               const QualityProfile& profile) const;
  /// Summarize's `drifted` verdict, from the two windows alone.
  bool IsDrifted(const QualityProfile& profile) const;

  QualityConfig quality_config_;
  /// The one map keyed by statement fingerprint.
  std::map<uint64_t, Row> rows_;
  /// Recording order of the rows: Row::last_recorded -> fingerprint.
  std::map<uint64_t, uint64_t> recency_;
  uint64_t next_recorded_ = 0;
  std::set<uint64_t> drifted_;  ///< rows whose quality verdict is drifted
  uint64_t observation_count_ = 0;
  size_t quality_fingerprints_ = 0;
  SloScope global_;
  std::map<std::string, SloScope> sessions_;
  size_t slo_fingerprints_ = 0;
  std::deque<PlanDiffRecord> plan_diffs_;
  PlanProvenanceStats plan_stats_;
  size_t plan_count_ = 0;
  uint64_t next_plan_sequence_ = 0;
  /// Fingerprint of the newest plan record (LatestPlan).
  uint64_t latest_plan_ = 0;
  /// Most recently recorded crossover quantile (-1 until one is seen);
  /// exported as the optimizer.sensitivity.crossover_quantile gauge.
  double last_crossover_ = -1.0;
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_FINGERPRINT_LEDGER_H_
