#include "obs/slo_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace robustqo {
namespace obs {
namespace {

SloObservation Obs(double actual, double estimated, bool cache_hit = true,
                   uint64_t waves = 0, bool failed = false) {
  SloObservation o;
  o.session = 1;
  o.session_label = "s1";
  o.fingerprint = 0xF00Du;
  o.failed = failed;
  o.cache_hit = cache_hit;
  o.queue_waves = waves;
  o.actual_seconds = actual;
  o.estimated_seconds = estimated;
  return o;
}

TEST(SloMonitorTest, ChargesQueueWaitAndColdPlanning) {
  SloMonitorConfig config;
  config.wave_delay_seconds = 0.1;
  config.plan_charge_seconds = 0.5;
  SloMonitor monitor(config);
  EXPECT_DOUBLE_EQ(monitor.QueueWaitSeconds(3), 0.3);
  EXPECT_DOUBLE_EQ(monitor.ServiceSeconds(1.0, /*cache_hit=*/true), 1.0);
  EXPECT_DOUBLE_EQ(monitor.ServiceSeconds(1.0, /*cache_hit=*/false), 1.5);
  monitor.ConfigureCharging(0.2, 1.0);
  EXPECT_DOUBLE_EQ(monitor.QueueWaitSeconds(3), 0.6);
  EXPECT_DOUBLE_EQ(monitor.ServiceSeconds(1.0, /*cache_hit=*/false), 2.0);
}

TEST(SloMonitorTest, RecordsIntoAllThreeScopes) {
  SloMonitor monitor;
  monitor.Record(Obs(1.0, 1.0));
  SloObservation other = Obs(2.0, 2.0);
  other.session_label = "s2";
  other.fingerprint = 0xBEEFu;
  monitor.Record(other);
  EXPECT_EQ(monitor.global().observed, 2u);
  EXPECT_EQ(monitor.sessions_tracked(), 2u);
  EXPECT_EQ(monitor.fingerprints_tracked(), 2u);
  ASSERT_NE(monitor.SessionScope("s1"), nullptr);
  EXPECT_EQ(monitor.SessionScope("s1")->observed, 1u);
  ASSERT_NE(monitor.FingerprintScope(0xBEEFu), nullptr);
  EXPECT_EQ(monitor.FingerprintScope(0xBEEFu)->observed, 1u);
  EXPECT_EQ(monitor.SessionScope("nope"), nullptr);
  EXPECT_EQ(monitor.FingerprintScope(0x1234u), nullptr);
}

TEST(SloMonitorTest, RegretClampsAtZeroAndTracksWorstRatio) {
  SloMonitor monitor;
  monitor.Record(Obs(0.5, 1.0));  // plan beat its estimate: no regret
  EXPECT_EQ(monitor.global().regret_positive, 0u);
  EXPECT_DOUBLE_EQ(monitor.global().regret.Quantile(0.5), 0.0);
  monitor.Record(Obs(3.0, 1.0));  // 3x the promise
  EXPECT_EQ(monitor.global().regret_positive, 1u);
  EXPECT_DOUBLE_EQ(monitor.global().worst_regret_ratio, 3.0);
  monitor.Record(Obs(1.5, 1.0));  // worse than promise, better than worst
  EXPECT_EQ(monitor.global().regret_positive, 2u);
  EXPECT_DOUBLE_EQ(monitor.global().worst_regret_ratio, 3.0);
}

TEST(SloMonitorTest, FailedRequestsCountQueueWaitButNotService) {
  SloMonitorConfig config;
  config.wave_delay_seconds = 0.05;
  SloMonitor monitor(config);
  monitor.Record(Obs(0.0, 1.0, /*cache_hit=*/false, /*waves=*/4,
                     /*failed=*/true));
  EXPECT_EQ(monitor.global().observed, 1u);
  EXPECT_EQ(monitor.global().failed, 1u);
  EXPECT_EQ(monitor.global().queue_wait.count(), 1u);
  EXPECT_EQ(monitor.global().service.count(), 0u);
  EXPECT_EQ(monitor.global().regret.count(), 0u);
  EXPECT_EQ(monitor.global().regret_positive, 0u);
}

TEST(SloMonitorTest, BreachCountersRespectThresholds) {
  SloMonitorConfig config;
  config.wave_delay_seconds = 0.1;
  config.plan_charge_seconds = 0.0;
  config.queue_wait_breach_seconds = 0.25;
  config.service_breach_seconds = 2.0;
  config.regret_breach_seconds = 0.5;
  SloMonitor monitor(config);
  monitor.Record(Obs(1.0, 1.0, /*cache_hit=*/true, /*waves=*/1));  // no breach
  monitor.Record(Obs(3.0, 1.0, /*cache_hit=*/true, /*waves=*/3));  // all three
  EXPECT_EQ(monitor.global().breach_queue_wait, 1u);
  EXPECT_EQ(monitor.global().breach_service, 1u);
  EXPECT_EQ(monitor.global().breach_regret, 1u);
  // Disabled thresholds (0) never count.
  SloMonitor unlimited;
  unlimited.Record(Obs(100.0, 1.0, /*cache_hit=*/true, /*waves=*/50));
  EXPECT_EQ(unlimited.global().breach_queue_wait, 0u);
  EXPECT_EQ(unlimited.global().breach_service, 0u);
  EXPECT_EQ(unlimited.global().breach_regret, 0u);
}

TEST(SloMonitorTest, ReportAndJsonAreDeterministic) {
  const auto build = []() {
    SloMonitor monitor;
    monitor.Record(Obs(1.0, 1.0));
    SloObservation other = Obs(2.0, 1.0, /*cache_hit=*/false, /*waves=*/2);
    other.session_label = "s2";
    monitor.Record(other);
    monitor.Record(Obs(0.0, 1.0, true, 0, /*failed=*/true));
    return monitor;
  };
  const SloMonitor a = build();
  const SloMonitor b = build();
  EXPECT_EQ(a.ReportText(), b.ReportText());
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_NE(a.ReportText().find("slo: observed=3 failed=1"),
            std::string::npos);
  EXPECT_NE(a.ToJson().find("\"sessions\""), std::string::npos);
}

TEST(SloMonitorTest, PublishMetricsIsIdempotent) {
  SloMonitor monitor;
  monitor.Record(Obs(2.0, 1.0));
  monitor.Record(Obs(1.0, 1.0, /*cache_hit=*/true, /*waves=*/1));
  MetricsRegistry metrics;
  monitor.PublishMetrics(&metrics);
  monitor.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("server.slo.observed")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("optimizer.regret.positive")->value(), 1u);
  EXPECT_EQ(metrics.GetSketch("server.slo.service_seconds")->count(), 2u);
  EXPECT_EQ(metrics.GetSketch("optimizer.regret.seconds")->count(), 2u);
  EXPECT_EQ(metrics.GetGauge("optimizer.regret.worst_ratio")->value(), 2.0);
}

TEST(SloMonitorTest, ResetClearsAllScopes) {
  SloMonitor monitor;
  monitor.Record(Obs(1.0, 1.0));
  monitor.Reset();
  EXPECT_EQ(monitor.global().observed, 0u);
  EXPECT_EQ(monitor.sessions_tracked(), 0u);
  EXPECT_EQ(monitor.fingerprints_tracked(), 0u);
  EXPECT_EQ(monitor.global().queue_wait.count(), 0u);
}

// The success journal behind incremental T% retuning: from any cursor it
// names exactly the fingerprints with a success recorded after it (and
// after the last Reset), however often it compacts.
TEST(SloMonitorTest, SuccessJournalNamesFingerprintsSucceededSinceACursor) {
  Rng rng(7);
  SloMonitor monitor;
  std::vector<std::pair<uint64_t, uint64_t>> successes;  // (sequence, fp)
  uint64_t reset_at = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.NextBernoulli(0.001)) {
      monitor.Reset();
      reset_at = monitor.successes_recorded();
    }
    SloObservation observation = Obs(1.0, 1.0);
    observation.fingerprint = 1 + rng.NextBounded(1 + step / 1000);
    observation.failed = rng.NextBernoulli(0.2);
    monitor.Record(observation);
    if (!observation.failed) {
      successes.emplace_back(monitor.successes_recorded(),
                             observation.fingerprint);
    }
    ASSERT_EQ(monitor.successes_recorded(), successes.size());
    if (step % 5 != 0) continue;
    const uint64_t since =
        monitor.successes_recorded() -
        rng.NextBounded(std::min<uint64_t>(monitor.successes_recorded(), 300) +
                        1);
    std::set<uint64_t> expected;
    for (const auto& [sequence, fingerprint] : successes) {
      if (sequence > since && sequence > reset_at) expected.insert(fingerprint);
    }
    const std::vector<uint64_t> named =
        monitor.FingerprintsSucceededSince(since);
    EXPECT_EQ(std::set<uint64_t>(named.begin(), named.end()), expected)
        << "step " << step << " since " << since;
  }
}

}  // namespace
}  // namespace obs
}  // namespace robustqo
