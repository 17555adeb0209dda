#include "learning/tpercent_tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "obs/slo_monitor.h"
#include "util/rng.h"

namespace robustqo {
namespace learn {
namespace {

// Feeds `count` successful executions of `fingerprint` into the monitor,
// `regretted` of which realized more cost than the plan promised.
void FeedExecutions(obs::SloMonitor* slo, uint64_t fingerprint, int count,
                    int regretted) {
  for (int i = 0; i < count; ++i) {
    obs::SloObservation observation;
    observation.session = 1;
    observation.session_label = "tuner-test";
    observation.fingerprint = fingerprint;
    observation.cache_hit = true;
    observation.estimated_seconds = 1.0;
    observation.actual_seconds = i < regretted ? 2.0 : 0.5;
    slo->Record(observation);
  }
}

TEST(TPercentTunerTest, EffectiveThresholdDefaultsToBase) {
  TPercentTuner tuner;
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.8);
}

TEST(TPercentTunerTest, ChronicRegretRaisesTheThreshold) {
  obs::SloMonitor slo;
  // 32 successes, every one over its promise: regret rate 1.0 against a
  // (1 - 0.8) = 0.2 budget.
  FeedExecutions(&slo, 42, 32, 32);
  TPercentTuner tuner;
  tuner.Retune(slo, 0.8);
  EXPECT_EQ(tuner.overrides(), 1u);
  EXPECT_EQ(tuner.raised_total(), 1u);
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.85);
  // Still chronically over budget: the next retune raises another step.
  tuner.Retune(slo, 0.8);
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.9);
}

TEST(TPercentTunerTest, RaiseStopsAtMaxThreshold) {
  obs::SloMonitor slo;
  FeedExecutions(&slo, 42, 32, 32);
  TPercentTuner tuner;
  for (int i = 0; i < 20; ++i) tuner.Retune(slo, 0.8);
  EXPECT_LE(tuner.EffectiveThreshold(42, 0.8), tuner.config().max_threshold);
}

TEST(TPercentTunerTest, CalibratedFingerprintRelaxesBackToBase) {
  obs::SloMonitor regretful;
  FeedExecutions(&regretful, 42, 32, 32);
  TPercentTuner tuner;
  tuner.Retune(regretful, 0.8);
  tuner.Retune(regretful, 0.8);
  ASSERT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.9);

  // A fresh window with zero regret: the override walks back one step per
  // retune and disappears at the base.
  obs::SloMonitor calibrated;
  FeedExecutions(&calibrated, 42, 32, 0);
  tuner.Retune(calibrated, 0.8);
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.85);
  tuner.Retune(calibrated, 0.8);
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.8);
  EXPECT_EQ(tuner.overrides(), 0u);
  EXPECT_EQ(tuner.relaxed_total(), 2u);
}

TEST(TPercentTunerTest, TooFewObservationsAreLeftAlone) {
  obs::SloMonitor slo;
  FeedExecutions(&slo, 42, 8, 8);  // below min_observations = 16
  TPercentTuner tuner;
  tuner.Retune(slo, 0.8);
  EXPECT_EQ(tuner.overrides(), 0u);
}

TEST(TPercentTunerTest, InBudgetRegretNeverCreatesAnOverride) {
  obs::SloMonitor slo;
  // Regret rate 2/32 = 0.0625, well inside the 0.2 budget.
  FeedExecutions(&slo, 42, 32, 2);
  TPercentTuner tuner;
  tuner.Retune(slo, 0.8);
  EXPECT_EQ(tuner.overrides(), 0u);
  EXPECT_EQ(tuner.raised_total(), 0u);
}

TEST(TPercentTunerTest, DisabledTunerPassesBaseThrough) {
  obs::SloMonitor slo;
  FeedExecutions(&slo, 42, 32, 32);
  TPercentTuner tuner;
  tuner.Retune(slo, 0.8);
  ASSERT_GT(tuner.EffectiveThreshold(42, 0.8), 0.8);
  tuner.set_enabled(false);
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.8);
  tuner.set_enabled(true);
  EXPECT_DOUBLE_EQ(tuner.EffectiveThreshold(42, 0.8), 0.85);
}

TEST(TPercentTunerTest, ReportJsonAndMetrics) {
  obs::SloMonitor slo;
  FeedExecutions(&slo, 0x2a, 32, 32);
  TPercentTuner tuner;
  tuner.Retune(slo, 0.8);
  const std::string report = tuner.ReportText();
  EXPECT_NE(report.find("1 overrides (1 raises, 0 relaxes)"),
            std::string::npos);
  EXPECT_NE(report.find("000000000000002a T=85%"), std::string::npos);
  const std::string json = tuner.ToJson();
  EXPECT_NE(json.find("\"0x000000000000002a\""), std::string::npos);

  obs::MetricsRegistry metrics;
  tuner.PublishMetrics(&metrics);
  tuner.PublishMetrics(&metrics);  // idempotent
  EXPECT_EQ(metrics.GetGauge("optimizer.tpercent.overrides")->value(), 1.0);
  EXPECT_EQ(metrics.GetCounter("optimizer.tpercent.raised")->value(), 1u);
}

// The full-scan definition Retune must reproduce: every fingerprint the
// monitor has a scope for, ascending, tuned when it has min_observations
// successes. `fingerprints` is every fingerprint ever fed to the monitor.
class FullScanTuner {
 public:
  void Retune(const obs::SloMonitor& slo, const std::set<uint64_t>& fingerprints,
              double base) {
    for (uint64_t fingerprint : fingerprints) {
      const obs::SloMonitor::Scope* scope = slo.FingerprintScope(fingerprint);
      if (scope == nullptr) continue;
      const uint64_t successes = scope->observed - scope->failed;
      if (successes < config_.min_observations) continue;
      auto it = overrides_.find(fingerprint);
      const double current =
          it == overrides_.end() ? base : std::max(base, it->second);
      const double regret_rate = static_cast<double>(scope->regret_positive) /
                                 static_cast<double>(successes);
      const double budget = 1.0 - current;
      if (regret_rate > budget + config_.slack) {
        const double raised =
            std::min(config_.max_threshold, current + config_.step);
        if (raised > current) {
          overrides_[fingerprint] = raised;
          ++raised_;
        }
      } else if (regret_rate + config_.slack < budget &&
                 it != overrides_.end()) {
        const double relaxed = it->second - config_.step;
        if (relaxed <= base) {
          overrides_.erase(it);
        } else {
          it->second = relaxed;
        }
        ++relaxed_;
      }
    }
  }

  std::string Json() const {
    std::string out = "{\"enabled\":true,\"raised\":" +
                      std::to_string(raised_) +
                      ",\"relaxed\":" + std::to_string(relaxed_) +
                      ",\"overrides\":[";
    bool first = true;
    for (const auto& [fingerprint, threshold] : overrides_) {
      char entry[96];
      std::snprintf(entry, sizeof(entry),
                    "%s{\"fingerprint\":\"0x%016llx\",\"threshold\":%.9g}",
                    first ? "" : ",",
                    static_cast<unsigned long long>(fingerprint), threshold);
      out += entry;
      first = false;
    }
    return out + "]}";
  }

 private:
  TunerConfig config_;
  std::map<uint64_t, double> overrides_;
  uint64_t raised_ = 0;
  uint64_t relaxed_ = 0;
};

// Random traffic over many fingerprints, most of them below the
// min_observations bar, into two monitors that one tuner alternates
// between; monitors are reset, copied and re-created in place. Retunes
// are frequent, so fingerprints cross the bar just before one. After every
// Retune the incremental tuner equals the full-scan reference.
TEST(TPercentTunerTest, RetuneMatchesFullScanReferenceAcrossMonitors) {
  Rng rng(2026);
  std::optional<obs::SloMonitor> monitors[2];
  std::set<uint64_t> fed[2];
  monitors[0].emplace();
  monitors[1].emplace();
  TPercentTuner tuner;
  FullScanTuner reference;
  int retunes = 0;
  for (int step = 0; step < 40000; ++step) {
    const int m = rng.NextBernoulli(0.7) ? 0 : 1;
    const double roll = rng.NextDouble();
    if (roll < 0.0002) {
      monitors[m]->Reset();
      fed[m].clear();
    } else if (roll < 0.0003) {
      // A new monitor at the same address.
      monitors[m].emplace();
      fed[m].clear();
    } else if (roll < 0.0004) {
      const obs::SloMonitor copy = *monitors[1 - m];
      monitors[m].reset();
      monitors[m].emplace(copy);
      fed[m] = fed[1 - m];
    } else if (roll < 0.05) {
      const double base = rng.NextBernoulli(0.8) ? 0.8 : 0.6;
      tuner.Retune(*monitors[m], base);
      reference.Retune(*monitors[m], fed[m], base);
      ASSERT_EQ(tuner.ToJson(), reference.Json()) << "step " << step;
      ++retunes;
    } else {
      // Each monitor has its own hot fingerprints; a shared warm tier
      // crosses the bar at different times in each; a long tail never does.
      const double tier = rng.NextDouble();
      const uint64_t fingerprint =
          tier < 0.3   ? 1000 * (m + 1) + rng.NextBounded(4)
          : tier < 0.7 ? 100 + rng.NextBounded(150)
                       : 10000 + rng.NextBounded(3000);
      obs::SloObservation observation;
      observation.session = 1;
      observation.session_label = "property";
      observation.fingerprint = fingerprint;
      observation.failed = rng.NextBernoulli(0.1);
      observation.cache_hit = true;
      observation.estimated_seconds = 1.0;
      // Each monitor sees half the hot fingerprints regret chronically and
      // the other half stay calibrated, so alternating raises and relaxes.
      const bool chronic = (fingerprint + m) % 2 == 0;
      observation.actual_seconds =
          rng.NextBernoulli(chronic ? 0.6 : 0.05) ? 2.0 : 0.5;
      monitors[m]->Record(observation);
      fed[m].insert(fingerprint);
    }
  }
  EXPECT_GT(retunes, 500);
  EXPECT_GT(tuner.raised_total(), 5u);
  EXPECT_GT(tuner.relaxed_total(), 5u);
}

}  // namespace
}  // namespace learn
}  // namespace robustqo
