// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// TPercentTuner: the regret-driven half of the learning subsystem. The
// paper's T% knob trades expected performance against predictability; the
// SloMonitor measures, per statement fingerprint, how often the chosen
// plan's realized cost exceeded the cdf⁻¹(T%) promise (positive regret).
// Under a calibrated posterior that should happen on at most ~(1-T) of
// executions — when a fingerprint's realized regret rate is chronically
// above that budget, the posterior is underselling it and the tuner
// raises that fingerprint's effective T% one step (more conservative
// estimates, safer plans). When the regret rate falls back inside the
// budget the override relaxes one step toward the configured base, so a
// transient rough patch does not pin a fingerprint at max conservatism
// forever.
//
// The tuner holds per-fingerprint absolute T overrides; the effective
// threshold for a request is max(base, override) where base is the
// session/system T%. The plan-cache key already includes the effective
// T%, so a retuned fingerprint naturally misses the cache and replans at
// its new threshold — no explicit invalidation needed.
//
// Retune runs in the serving layer's sequential between-waves hook and
// reads only the SloMonitor's deterministic state, so overrides, reports
// and optimizer.tpercent.* metrics are byte-identical at any RQO_THREADS.
// It visits only fingerprints with at least min_observations successes,
// kept in an ascending set fed from the monitor's success journal, so a
// wave costs O(eligible fingerprints + requests since the last call)
// however many fingerprints the monitor has seen.

#ifndef ROBUSTQO_LEARNING_TPERCENT_TUNER_H_
#define ROBUSTQO_LEARNING_TPERCENT_TUNER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "obs/slo_monitor.h"

namespace robustqo {
namespace learn {

struct TunerConfig {
  /// Master switch (SET LEARNING OFF disables it together with the
  /// feedback store).
  bool enabled = true;
  /// T% movement per Retune decision.
  double step = 0.05;
  /// Ceiling for raised thresholds (must stay < 1 for cdf⁻¹).
  double max_threshold = 0.99;
  /// Successful executions a fingerprint needs before it is tuned.
  uint64_t min_observations = 16;
  /// Tolerated excess over the (1 - T) regret budget before raising, and
  /// required headroom under it before relaxing (hysteresis).
  double slack = 0.05;
};

class TPercentTuner {
 public:
  explicit TPercentTuner(TunerConfig config = {}) : config_(config) {}

  const TunerConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }
  void set_enabled(bool enabled) { config_.enabled = enabled; }

  /// The T% a request with this statement fingerprint should plan at:
  /// max(base, override), or base when disabled / never tuned.
  double EffectiveThreshold(uint64_t fingerprint, double base) const;

  /// Walks the SloMonitor's regret scopes of the fingerprints with at
  /// least min_observations successes, ascending, and nudges overrides:
  /// raise where the realized regret rate exceeds the
  /// (1 - effective T) budget plus slack, relax one step toward `base`
  /// where it sits below the budget minus slack. Deterministic; call from
  /// a sequential phase.
  void Retune(const obs::SloMonitor& slo, double base_threshold);

  size_t overrides() const { return overrides_.size(); }
  uint64_t raised_total() const { return raised_total_; }
  uint64_t relaxed_total() const { return relaxed_total_; }

  /// Aligned text block (part of the shell's `.learning`).
  std::string ReportText() const;

  /// Deterministic JSON of the same content.
  std::string ToJson() const;

  /// Publishes optimizer.tpercent.{overrides,raised,relaxed}. Idempotent;
  /// no-op on null.
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

  void Reset();

 private:
  TunerConfig config_;
  std::map<uint64_t, double> overrides_;  ///< fingerprint -> absolute T
  /// Fingerprints of `source_` with at least min_observations successes,
  /// as of its success cursor `cursor_`.
  std::set<uint64_t> eligible_;
  uint64_t source_ = 0;  ///< SloMonitor::instance() eligible_ mirrors
  uint64_t cursor_ = 0;  ///< its successes_recorded() at the last Retune
  uint64_t raised_total_ = 0;
  uint64_t relaxed_total_ = 0;
};

}  // namespace learn
}  // namespace robustqo

#endif  // ROBUSTQO_LEARNING_TPERCENT_TUNER_H_
