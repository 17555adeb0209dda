// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// FeedbackStore: the online-learning half of the estimation feedback loop
// (ROADMAP item 1, in the spirit of Postgres AQO / adaptive cardinality
// estimation). The serving layer's reduce phase — and the EXPLAIN ANALYZE
// quality join — record each executed query's true selectivity under its
// canonical predicate fingerprint (perf/fingerprint.h). The store folds
// every observation into per-fingerprint Beta pseudo-counts (k_eq, n_eq):
// an observation of actual selectivity s contributes s·w to k_eq and w to
// n_eq, where w = observation_weight equivalent sample rows. The robust
// estimator then merges that learned evidence into the prior of its
// selectivity posterior, so the next estimate of the same predicate shape
// starts from what execution actually measured — "learn and replan
// better" instead of "evict and replan blind".
//
// Guarantees:
//   * Bounded evidence: n_eq is capped at max_equivalent_n; when the cap
//     is hit both pseudo-counts rescale proportionally, which doubles as
//     exponential forgetting of old observations.
//   * Bounded memory: at most max_fingerprints entries; inserting past
//     the cap deterministically evicts the entry with the fewest
//     observations (oldest insertion breaking ties).
//   * Epoch-stamped: every entry records the statistics epoch its
//     evidence was gathered under. A statistics rebuild bumps the epoch,
//     which makes stale evidence invisible to Lookup immediately and
//     resets it lazily on the next Observe — fresh statistics must not be
//     "corrected" by feedback gathered against the stale ones.
//   * Deterministic: all mutation happens in the serving layer's
//     sequential phases (admission order), so reports, metrics and the
//     corrections themselves are byte-identical at any RQO_THREADS.
//   * Fully disableable: with enabled=false, Lookup never hits and
//     Observe is a no-op, reproducing the pre-learning estimates
//     bit-for-bit.
//
// Observe probes the `learning.feedback.apply` fault site before touching
// the store: a fired probe drops the observation (typed status, counted),
// modeling a feedback pipeline outage — estimates degrade gracefully to
// their uncorrected values, never to wrong answers.

#ifndef ROBUSTQO_LEARNING_FEEDBACK_STORE_H_
#define ROBUSTQO_LEARNING_FEEDBACK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace robustqo {
namespace learn {

/// Knobs of the feedback store (the shell's SET LEARNING toggles
/// `enabled`; the rest are ServerConfig-level policy).
struct LearningConfig {
  /// Master switch. Off = Observe is a no-op and Lookup never hits, so
  /// estimates are bit-identical to a build without the store.
  bool enabled = true;
  /// Equivalent sample rows one observation contributes (w): k_eq gains
  /// actual_selectivity * w, n_eq gains w. Larger = faster adaptation.
  double observation_weight = 32.0;
  /// Cap on n_eq; hitting it rescales both pseudo-counts proportionally
  /// (bounded evidence + exponential forgetting).
  double max_equivalent_n = 2048.0;
  /// Observations required before Lookup exposes an entry's evidence —
  /// one noisy actual must not steer the estimator.
  uint64_t min_observations = 3;
  /// Bounded memory: max tracked fingerprints (deterministic eviction).
  size_t max_fingerprints = 256;
};

/// Learned pseudo-evidence for one fingerprint, ready to merge into a
/// Beta prior: alpha += k_eq, beta += n_eq - k_eq.
struct LearnedEvidence {
  double k_eq = 0.0;
  double n_eq = 0.0;
  uint64_t observations = 0;
};

class FeedbackStore {
 public:
  explicit FeedbackStore(LearningConfig config = {}) : config_(config) {}

  const LearningConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }
  void set_enabled(bool enabled) { config_.enabled = enabled; }

  /// Folds one executed query's outcome into the fingerprint's evidence.
  /// `statistics_epoch` stamps the entry; an entry observed under an older
  /// epoch is reset first (stale evidence dies with the statistics it was
  /// gathered against). Probes the learning.feedback.apply fault site: a
  /// fire drops the observation and returns its typed status. No-op
  /// (OK) when disabled.
  Status Observe(uint64_t fingerprint, const std::string& label,
                 double estimated_selectivity, double actual_selectivity,
                 uint64_t statistics_epoch);

  /// The learned evidence for `fingerprint` at the current statistics
  /// epoch, or nullopt when disabled, unknown, gathered under a different
  /// epoch, or still below min_observations. Const and side-effect-free —
  /// the estimator counts its own hit/miss metrics.
  std::optional<LearnedEvidence> Lookup(uint64_t fingerprint,
                                        uint64_t statistics_epoch) const;

  /// Probes the learning.feedback.apply fault site for a plan-time learned
  /// lookup. The estimator calls this before Lookup: a fired probe means
  /// the feedback path is unavailable and the estimate proceeds
  /// uncorrected (counted as estimator.learned.unavailable by the caller).
  Status CheckApply();

  size_t fingerprints_tracked() const { return entries_.size(); }
  uint64_t observations_total() const { return observations_total_; }
  uint64_t dropped_total() const { return dropped_total_; }
  uint64_t evictions_total() const { return evictions_total_; }
  uint64_t epoch_resets_total() const { return epoch_resets_total_; }

  /// Aligned text block (the shell's `.learning`): totals plus one line
  /// per fingerprint ordered by fingerprint. Byte-identical at any
  /// RQO_THREADS setting.
  std::string ReportText() const;

  /// Deterministic JSON of the same content.
  std::string ToJson() const;

  /// Publishes the estimator.learned.* store-side series (fingerprints,
  /// observations, dropped, evictions, epoch_resets). Idempotent; no-op
  /// on null.
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

  /// Drops every entry (keeps lifetime totals).
  void Reset();

  /// The injector whose learning.feedback.apply site Observe probes
  /// (borrowed, nullable).
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

 private:
  struct Entry {
    std::string label;
    double k_eq = 0.0;
    double n_eq = 0.0;
    uint64_t observations = 0;
    uint64_t epoch = 0;
    uint64_t order = 0;  ///< insertion order (deterministic eviction ties)
    double last_estimated = 0.0;
    double last_actual = 0.0;
  };

  LearningConfig config_;
  std::map<uint64_t, Entry> entries_;
  fault::FaultInjector* injector_ = nullptr;
  uint64_t next_order_ = 0;
  uint64_t observations_total_ = 0;
  uint64_t dropped_total_ = 0;
  uint64_t evictions_total_ = 0;
  uint64_t epoch_resets_total_ = 0;
};

}  // namespace learn
}  // namespace robustqo

#endif  // ROBUSTQO_LEARNING_FEEDBACK_STORE_H_
