// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// EstimationQualityMonitor: watches cardinality-estimation quality drift
// over a long workload. Every executed query feeds back one or more
// (fingerprint, estimated rows, actual rows, confidence threshold)
// observations — the fingerprint is the canonical predicate fingerprint
// (perf/fingerprint.h) the estimator keyed its caches with, so repeated
// shapes accumulate into one profile no matter how the workload phrases
// them.
//
// Per fingerprint the monitor maintains:
//   * a cumulative q-error quantile sketch (p50/p90/p99) plus the exact
//     maximum;
//   * posterior-calibration tallies: for estimates produced by inverting
//     the Beta posterior at the T% confidence threshold, the bound "held"
//     when the actual came in at or under the estimate — over a healthy
//     workload the hit-rate should track T;
//   * a drift detector comparing the median q-error of a trailing window
//     against the median over the profile's baseline (first) window. A
//     fingerprint whose recent median regresses by `drift_factor` or more
//     is flagged — the signal that data moved underneath stale statistics.
//     A verdict can change only when the profile records, so Record keeps
//     the flagged set current and Drifted() costs O(flagged), not
//     O(fingerprints seen).
//
// The monitor is plain deterministic state (no clocks, no allocation
// surprises); it lives in obs so the estimator layer above can stay
// ignorant of it. The join from EXPLAIN ANALYZE reports into observations
// lives in workload/quality_report.h.

#ifndef ROBUSTQO_OBS_QUALITY_MONITOR_H_
#define ROBUSTQO_OBS_QUALITY_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/quantile_sketch.h"

namespace robustqo {
namespace obs {

/// One piece of execution feedback for a fingerprinted estimate.
struct QualityObservation {
  uint64_t fingerprint = 0;
  /// Human-readable identity, first occurrence wins (e.g. "tables :: pred").
  std::string label;
  double estimated_rows = 0.0;
  double actual_rows = 0.0;
  /// The T at which the posterior was inverted; 0 = not a confidence-bound
  /// estimate (no calibration tally).
  double confidence_threshold = 0.0;
};

struct QualityMonitorConfig {
  /// Observations forming a profile's frozen baseline window.
  size_t baseline_window = 32;
  /// Trailing observations compared against the baseline.
  size_t recent_window = 32;
  /// Flag when recent median q-error >= drift_factor * baseline median.
  double drift_factor = 4.0;
  /// Minimum observations in each window before drift is evaluated.
  size_t min_observations = 8;
};

/// Snapshot of one fingerprint's profile.
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

class EstimationQualityMonitor {
 public:
  explicit EstimationQualityMonitor(QualityMonitorConfig config = {});

  void Record(const QualityObservation& observation);

  uint64_t observation_count() const { return observation_count_; }
  size_t fingerprint_count() const { return profiles_.size(); }

  /// Per-fingerprint snapshots ordered by fingerprint (deterministic).
  std::vector<FingerprintQuality> Snapshot() const;
  /// The flagged subset of Snapshot(), summarizing only flagged profiles.
  std::vector<FingerprintQuality> Drifted() const;

  /// Aligned text drift report (the shell's `.quality`).
  std::string ReportText() const;
  /// Deterministic JSON rendering of Snapshot().
  std::string ReportJson() const;

  /// Publishes the `estimator.quality.*` family into `metrics`: gauges for
  /// fingerprint/observation/drift totals and calibration tallies, plus the
  /// merged q-error sketch. Idempotent — safe to call after every query.
  void PublishMetrics(MetricsRegistry* metrics) const;

  void Reset();

 private:
  struct Profile {
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

  FingerprintQuality Summarize(uint64_t fingerprint,
                               const Profile& profile) const;
  /// Summarize's `drifted` verdict, from the two windows alone.
  bool IsDrifted(const Profile& profile) const;

  QualityMonitorConfig config_;
  std::map<uint64_t, Profile> profiles_;
  std::set<uint64_t> drifted_;  ///< fingerprints whose verdict is drifted
  uint64_t observation_count_ = 0;
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_QUALITY_MONITOR_H_
