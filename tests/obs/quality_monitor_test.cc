#include "obs/quality_monitor.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace robustqo {
namespace obs {
namespace {

QualityObservation Obs(uint64_t fingerprint, double est, double act,
                       double threshold = 0.0) {
  QualityObservation o;
  o.fingerprint = fingerprint;
  o.label = "{t} :: pred";
  o.estimated_rows = est;
  o.actual_rows = act;
  o.confidence_threshold = threshold;
  return o;
}

TEST(QualityMonitorTest, IgnoresZeroFingerprint) {
  EstimationQualityMonitor monitor;
  monitor.Record(Obs(0, 100.0, 50.0));
  EXPECT_EQ(monitor.observation_count(), 0u);
  EXPECT_EQ(monitor.fingerprint_count(), 0u);
}

TEST(QualityMonitorTest, TracksPerFingerprintQErrorQuantiles) {
  EstimationQualityMonitor monitor;
  // q-errors exactly 2.0 (est 100 vs act 50), a hundred times.
  for (int i = 0; i < 100; ++i) monitor.Record(Obs(7, 100.0, 50.0));
  ASSERT_EQ(monitor.fingerprint_count(), 1u);
  const FingerprintQuality q = monitor.Snapshot()[0];
  EXPECT_EQ(q.fingerprint, 7u);
  EXPECT_EQ(q.observations, 100u);
  EXPECT_NEAR(q.q_p50, 2.0, 0.05);
  EXPECT_NEAR(q.q_p99, 2.0, 0.05);
  EXPECT_DOUBLE_EQ(q.q_max, 2.0);
  EXPECT_FALSE(q.drifted);
}

TEST(QualityMonitorTest, CalibrationTalliesTrackTheBound) {
  EstimationQualityMonitor monitor;
  // 9 of 10 bounds hold at T=90%.
  for (int i = 0; i < 9; ++i) monitor.Record(Obs(3, 120.0, 100.0, 0.9));
  monitor.Record(Obs(3, 120.0, 500.0, 0.9));  // bound violated
  const FingerprintQuality q = monitor.Snapshot()[0];
  EXPECT_EQ(q.bound_checks, 10u);
  EXPECT_EQ(q.bound_holds, 9u);
  EXPECT_DOUBLE_EQ(q.bound_hit_rate, 0.9);
  EXPECT_NEAR(q.mean_threshold, 0.9, 1e-12);
}

TEST(QualityMonitorTest, EstimatesWithoutThresholdAreNotCalibrationChecked) {
  EstimationQualityMonitor monitor;
  monitor.Record(Obs(3, 120.0, 100.0, 0.0));
  const FingerprintQuality q = monitor.Snapshot()[0];
  EXPECT_EQ(q.bound_checks, 0u);
  EXPECT_DOUBLE_EQ(q.bound_hit_rate, 0.0);
}

TEST(QualityMonitorTest, FlagsDriftWhenRecentWindowRegresses) {
  QualityMonitorConfig config;
  config.baseline_window = 16;
  config.recent_window = 16;
  config.min_observations = 8;
  config.drift_factor = 4.0;
  EstimationQualityMonitor monitor(config);
  // Baseline: near-perfect estimates (q-error ~1).
  for (int i = 0; i < 16; ++i) monitor.Record(Obs(11, 100.0, 100.0));
  EXPECT_TRUE(monitor.Drifted().empty());
  // Then the data moves under the statistics: actuals 10x the estimates.
  for (int i = 0; i < 16; ++i) monitor.Record(Obs(11, 100.0, 1000.0));
  const std::vector<FingerprintQuality> drifted = monitor.Drifted();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].fingerprint, 11u);
  EXPECT_NEAR(drifted[0].drift_ratio, 10.0, 0.5);
  EXPECT_TRUE(drifted[0].drifted);
  // A healthy sibling fingerprint stays unflagged.
  for (int i = 0; i < 40; ++i) monitor.Record(Obs(12, 100.0, 110.0));
  EXPECT_EQ(monitor.Drifted().size(), 1u);
}

TEST(QualityMonitorTest, SnapshotOrdersByFingerprint) {
  EstimationQualityMonitor monitor;
  monitor.Record(Obs(99, 10.0, 10.0));
  monitor.Record(Obs(1, 10.0, 10.0));
  monitor.Record(Obs(50, 10.0, 10.0));
  const std::vector<FingerprintQuality> all = monitor.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].fingerprint, 1u);
  EXPECT_EQ(all[1].fingerprint, 50u);
  EXPECT_EQ(all[2].fingerprint, 99u);
}

TEST(QualityMonitorTest, ReportsAreDeterministic) {
  auto build = [] {
    EstimationQualityMonitor monitor;
    for (int i = 0; i < 20; ++i) {
      monitor.Record(Obs(5, 100.0, 80.0, 0.95));
      monitor.Record(Obs(9, 40.0, 200.0));
    }
    return monitor.ReportJson() + "\n" + monitor.ReportText();
  };
  EXPECT_EQ(build(), build());
  const std::string report = build();
  EXPECT_NE(report.find("\"fingerprint\":\"0x0000000000000005\""),
            std::string::npos);
  EXPECT_NE(report.find("\"bound_hit_rate\":1"), std::string::npos);
}

TEST(QualityMonitorTest, PublishMetricsIsIdempotent) {
  EstimationQualityMonitor monitor;
  for (int i = 0; i < 10; ++i) monitor.Record(Obs(4, 100.0, 50.0, 0.9));
  MetricsRegistry metrics;
  monitor.PublishMetrics(&metrics);
  const std::string once = metrics.ToJson();
  monitor.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.ToJson(), once);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("estimator.quality.fingerprints")->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("estimator.quality.bound_hit_rate")->value(), 1.0);
  EXPECT_EQ(metrics.GetSketch("estimator.quality.q_error")->count(), 10u);
}

TEST(QualityMonitorTest, ResetClearsEverything) {
  EstimationQualityMonitor monitor;
  monitor.Record(Obs(4, 100.0, 50.0));
  monitor.Reset();
  EXPECT_EQ(monitor.observation_count(), 0u);
  EXPECT_EQ(monitor.fingerprint_count(), 0u);
}

// Drifted() summarizes only the profiles Record flagged; it must equal the
// drifted subset of a full Snapshot() after any Record/Reset history.
TEST(QualityMonitorTest, DriftedMatchesSnapshotSubsetUnderRandomHistories) {
  Rng rng(18);
  bool saw_drift = false;
  bool saw_recovery = false;
  for (int round = 0; round < 12; ++round) {
    QualityMonitorConfig config;
    config.baseline_window = 2 + rng.NextBounded(8);
    config.recent_window = 2 + rng.NextBounded(8);
    config.min_observations = 1 + rng.NextBounded(6);
    config.drift_factor = round % 2 == 0 ? 2.0 : 4.0;
    EstimationQualityMonitor monitor(config);
    std::vector<double> regime(60, 1.0);  // per-fingerprint error scale
    std::set<uint64_t> drifted_before;
    bool reset = false;
    for (int op = 0; op < 8000; ++op) {
      if (rng.NextBernoulli(0.0005)) {
        monitor.Reset();
        reset = true;
      }
      const uint64_t fp = 1 + rng.NextBounded(regime.size());
      if (rng.NextBernoulli(0.1)) {
        regime[fp - 1] = rng.NextBernoulli(0.5) ? 1.0 : 10.0;
      }
      const double actual =
          100.0 * regime[fp - 1] * rng.NextDoubleInRange(1.0, 3.0);
      monitor.Record(
          Obs(fp, 100.0, actual, rng.NextBernoulli(0.5) ? 0.8 : 0.0));
      if (op % 37 != 0) continue;

      std::vector<FingerprintQuality> expected;
      for (const FingerprintQuality& q : monitor.Snapshot()) {
        if (q.drifted) expected.push_back(q);
      }
      const std::vector<FingerprintQuality> drifted = monitor.Drifted();
      ASSERT_EQ(drifted.size(), expected.size()) << "op " << op;
      std::set<uint64_t> drifted_now;
      for (size_t i = 0; i < drifted.size(); ++i) {
        const FingerprintQuality& a = drifted[i];
        const FingerprintQuality& b = expected[i];
        EXPECT_EQ(a.fingerprint, b.fingerprint);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.observations, b.observations);
        EXPECT_EQ(a.q_p50, b.q_p50);
        EXPECT_EQ(a.q_p90, b.q_p90);
        EXPECT_EQ(a.q_p99, b.q_p99);
        EXPECT_EQ(a.q_max, b.q_max);
        EXPECT_EQ(a.bound_checks, b.bound_checks);
        EXPECT_EQ(a.bound_holds, b.bound_holds);
        EXPECT_EQ(a.baseline_median_q, b.baseline_median_q);
        EXPECT_EQ(a.recent_median_q, b.recent_median_q);
        EXPECT_EQ(a.drift_ratio, b.drift_ratio);
        EXPECT_TRUE(a.drifted);
        drifted_now.insert(a.fingerprint);
      }
      MetricsRegistry metrics;
      monitor.PublishMetrics(&metrics);
      EXPECT_EQ(
          metrics.GetGauge("estimator.quality.drifted_fingerprints")->value(),
          static_cast<double>(expected.size()));
      saw_drift = saw_drift || !drifted_now.empty();
      for (uint64_t fingerprint : drifted_before) {
        saw_recovery =
            saw_recovery || (!reset && drifted_now.count(fingerprint) == 0);
      }
      drifted_before = std::move(drifted_now);
      reset = false;
    }
  }
  // The histories flipped the verdict both ways without a Reset.
  EXPECT_TRUE(saw_drift);
  EXPECT_TRUE(saw_recovery);
}

}  // namespace
}  // namespace obs
}  // namespace robustqo
