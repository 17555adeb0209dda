// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// SloMonitor: the serving layer's latency and regret watchdog. The paper's
// promise is predictable latency — plans picked at cdf⁻¹(T%) should keep
// the tail flat — and this monitor is where that promise is checked in
// production terms. For every request the query service's reduce phase
// records:
//
//   * queue wait — admission waves waited, charged at the configured
//     simulated seconds per wave (the traffic harness's charging model);
//   * service time — the engine's simulated execution seconds plus the
//     planning charge when the plan missed the cache;
//   * realized regret — how far the plan's actual simulated cost exceeded
//     the estimate the robust optimizer promised when it chose the plan at
//     cdf⁻¹(T%). The promise comes from PlannedQuery::estimated_cost, the
//     actual from the same cost meter EXPLAIN ANALYZE reports, so regret
//     is measured in the one currency both sides share. Positive regret
//     means the posterior's T%-quantile undersold this execution — the
//     feedback signal the ROADMAP's AQO/PARQO items consume.
//
// Each signal lands in mergeable QuantileSketches at three scopes: global,
// per-session (keyed by session label) and per-fingerprint. Configurable
// thresholds turn observations into typed breach counters. Everything is
// recorded from the sequential reduce phase in admission order, so reports,
// JSON and published metrics (server.slo.* / optimizer.regret.*) are
// byte-identical at any RQO_THREADS setting. Recording is unconditional:
// learn::TPercentTuner::Retune reads the per-fingerprint regret scopes,
// visiting only the fingerprints the success journal names since its last
// call plus those it already tracks.

#ifndef ROBUSTQO_OBS_SLO_MONITOR_H_
#define ROBUSTQO_OBS_SLO_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/quantile_sketch.h"

namespace robustqo {
namespace obs {

struct SloMonitorConfig {
  /// Simulated queueing delay charged per admission wave waited. Defaults
  /// match workload::TrafficConfig; the traffic harness aligns them.
  double wave_delay_seconds = 0.05;
  /// Simulated planning charge for a request whose plan missed the cache.
  double plan_charge_seconds = 0.25;
  /// Breach thresholds in simulated seconds; 0 disables that breach
  /// counter.
  double queue_wait_breach_seconds = 0.0;
  double service_breach_seconds = 0.0;
  double regret_breach_seconds = 0.0;
  /// Worst sessions/fingerprints listed in ReportText (0 = none).
  size_t report_top_k = 3;
  double sketch_accuracy = 0.01;
};

/// Raw per-request inputs; the monitor derives the charged/regret values.
struct SloObservation {
  uint64_t session = 0;
  std::string session_label;
  uint64_t fingerprint = 0;
  bool failed = false;
  bool cache_hit = false;
  uint64_t queue_waves = 0;
  /// Simulated execution seconds actually metered (0 when failed).
  double actual_seconds = 0.0;
  /// The chosen plan's estimated cost at selection time (the cdf⁻¹(T%)
  /// promise); 0 when the request never got a plan.
  double estimated_seconds = 0.0;
};

class SloMonitor {
 public:
  /// One scope's accumulated signals. Queue wait is recorded for every
  /// observed request (queueing happens whether or not execution
  /// succeeds); service and regret only for successful ones.
  struct Scope {
    explicit Scope(double accuracy)
        : queue_wait(accuracy), service(accuracy), regret(accuracy) {}
    QuantileSketch queue_wait;
    QuantileSketch service;
    QuantileSketch regret;
    uint64_t observed = 0;
    uint64_t failed = 0;
    /// Successful requests whose actual exceeded the estimate.
    uint64_t regret_positive = 0;
    double worst_regret_ratio = 0.0;
    uint64_t breach_queue_wait = 0;
    uint64_t breach_service = 0;
    uint64_t breach_regret = 0;
  };

  explicit SloMonitor(SloMonitorConfig config = {});

  const SloMonitorConfig& config() const { return config_; }

  /// Aligns the charging model with a harness's (simulated seconds per
  /// admission wave, planning charge per cache miss).
  void ConfigureCharging(double wave_delay_seconds,
                         double plan_charge_seconds);

  /// The charged values the monitor would derive — shared with the flight
  /// recorder so both report identical numbers.
  double QueueWaitSeconds(uint64_t queue_waves) const {
    return static_cast<double>(queue_waves) * config_.wave_delay_seconds;
  }
  double ServiceSeconds(double actual_seconds, bool cache_hit) const {
    return actual_seconds + (cache_hit ? 0.0 : config_.plan_charge_seconds);
  }

  /// Records one finished request into the global, per-session and
  /// per-fingerprint scopes. Must be called in a deterministic order (the
  /// service's reduce phase guarantees admission order).
  void Record(const SloObservation& observation);

  const Scope& global() const { return global_; }
  /// nullptr when the scope has never been observed.
  const Scope* SessionScope(const std::string& label) const;
  const Scope* FingerprintScope(uint64_t fingerprint) const;
  size_t sessions_tracked() const { return sessions_.size(); }
  size_t fingerprints_tracked() const { return fingerprints_.size(); }

  /// Distinguishes monitor instances (a copy is a new instance) for readers
  /// that keep incremental state across calls, like the T% tuner.
  uint64_t instance() const { return instance_.value(); }
  /// Successful requests recorded by this instance; Reset does not rewind
  /// it, so it serves as a cursor into the success journal.
  uint64_t successes_recorded() const { return successes_recorded_; }
  /// Fingerprints with a successful request recorded after the cursor
  /// `since` (an earlier successes_recorded()) and after the last Reset,
  /// each at least once, in no particular order. Costs O(fingerprints
  /// recorded since), not O(scopes).
  std::vector<uint64_t> FingerprintsSucceededSince(uint64_t since) const;

  /// Fixed-precision text block: global quantiles, breach counters, and
  /// the worst sessions/fingerprints by tail service time / tail regret.
  /// Byte-identical at any thread count; pinned by the determinism suite
  /// via TrafficReport::Summary.
  std::string ReportText() const;

  /// Deterministic JSON of the same content.
  std::string ToJson() const;

  /// Publishes server.slo.* and optimizer.regret.* series (no-op on
  /// null). Idempotent: counters sync to absolute values, sketches are
  /// rebuilt from the monitor's state.
  void PublishMetrics(MetricsRegistry* metrics) const;

  void Reset();

 private:
  Scope* MutableSession(const std::string& label);
  Scope* MutableFingerprint(uint64_t fingerprint);
  void RecordInto(Scope* scope, const SloObservation& observation,
                  double queue_wait, double service, double regret,
                  double ratio);

  /// A fresh value per construction and per copy.
  class InstanceId {
   public:
    InstanceId() : value_(Next()) {}
    InstanceId(const InstanceId&) : value_(Next()) {}
    InstanceId& operator=(const InstanceId&) {
      value_ = Next();
      return *this;
    }
    uint64_t value() const { return value_; }

   private:
    static uint64_t Next();
    uint64_t value_;
  };

  /// One successful record: its success sequence number and fingerprint.
  struct JournalEntry {
    uint64_t sequence = 0;
    uint64_t fingerprint = 0;
  };

  SloMonitorConfig config_;
  Scope global_;
  std::map<std::string, Scope> sessions_;
  std::map<uint64_t, Scope> fingerprints_;
  InstanceId instance_;
  uint64_t successes_recorded_ = 0;
  /// Successful records in sequence order, compacted to each fingerprint's
  /// latest entry once it outgrows twice the scope count (plus slack): it
  /// stays O(fingerprints), and every suffix still names each fingerprint
  /// recorded in it.
  std::vector<JournalEntry> journal_;
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_SLO_MONITOR_H_
