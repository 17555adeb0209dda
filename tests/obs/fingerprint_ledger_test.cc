#include "obs/fingerprint_ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/plan_provenance.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace robustqo {
namespace obs {
namespace {

// ---- Quality columns ----

QualityObservation Obs(double est, double act, double threshold = 0.0) {
  QualityObservation o;
  o.label = "{t} :: pred";
  o.estimated_rows = est;
  o.actual_rows = act;
  o.confidence_threshold = threshold;
  return o;
}

TEST(QualityMonitorTest, IgnoresZeroFingerprint) {
  FingerprintLedger ledger;
  ledger.RecordQuality(0, Obs(100.0, 50.0));
  EXPECT_EQ(ledger.observation_count(), 0u);
  EXPECT_EQ(ledger.quality_fingerprints(), 0u);
}

TEST(QualityMonitorTest, TracksPerFingerprintQErrorQuantiles) {
  FingerprintLedger ledger;
  // q-errors exactly 2.0 (est 100 vs act 50), a hundred times.
  for (int i = 0; i < 100; ++i) ledger.RecordQuality(7, Obs(100.0, 50.0));
  ASSERT_EQ(ledger.quality_fingerprints(), 1u);
  const FingerprintQuality q = ledger.Snapshot()[0];
  EXPECT_EQ(q.fingerprint, 7u);
  EXPECT_EQ(q.observations, 100u);
  EXPECT_NEAR(q.q_p50, 2.0, 0.05);
  EXPECT_NEAR(q.q_p99, 2.0, 0.05);
  EXPECT_DOUBLE_EQ(q.q_max, 2.0);
  EXPECT_FALSE(q.drifted);
}

TEST(QualityMonitorTest, CalibrationTalliesTrackTheBound) {
  FingerprintLedger ledger;
  // 9 of 10 bounds hold at T=90%.
  for (int i = 0; i < 9; ++i) ledger.RecordQuality(3, Obs(120.0, 100.0, 0.9));
  ledger.RecordQuality(3, Obs(120.0, 500.0, 0.9));  // bound violated
  const FingerprintQuality q = ledger.Snapshot()[0];
  EXPECT_EQ(q.bound_checks, 10u);
  EXPECT_EQ(q.bound_holds, 9u);
  EXPECT_DOUBLE_EQ(q.bound_hit_rate, 0.9);
  EXPECT_NEAR(q.mean_threshold, 0.9, 1e-12);
}

TEST(QualityMonitorTest, EstimatesWithoutThresholdAreNotCalibrationChecked) {
  FingerprintLedger ledger;
  ledger.RecordQuality(3, Obs(120.0, 100.0, 0.0));
  const FingerprintQuality q = ledger.Snapshot()[0];
  EXPECT_EQ(q.bound_checks, 0u);
  EXPECT_DOUBLE_EQ(q.bound_hit_rate, 0.0);
}

TEST(QualityMonitorTest, FlagsDriftWhenRecentWindowRegresses) {
  QualityConfig config;
  config.baseline_window = 16;
  config.recent_window = 16;
  config.min_observations = 8;
  config.drift_factor = 4.0;
  FingerprintLedger ledger(config);
  // Baseline: near-perfect estimates (q-error ~1).
  for (int i = 0; i < 16; ++i) ledger.RecordQuality(11, Obs(100.0, 100.0));
  EXPECT_TRUE(ledger.Drifted().empty());
  // Then the data moves under the statistics: actuals 10x the estimates.
  for (int i = 0; i < 16; ++i) ledger.RecordQuality(11, Obs(100.0, 1000.0));
  const std::vector<FingerprintQuality> drifted = ledger.Drifted();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].fingerprint, 11u);
  EXPECT_NEAR(drifted[0].drift_ratio, 10.0, 0.5);
  EXPECT_TRUE(drifted[0].drifted);
  // A healthy sibling fingerprint stays unflagged.
  for (int i = 0; i < 40; ++i) ledger.RecordQuality(12, Obs(100.0, 110.0));
  EXPECT_EQ(ledger.Drifted().size(), 1u);
}

TEST(QualityMonitorTest, SnapshotOrdersByFingerprint) {
  FingerprintLedger ledger;
  ledger.RecordQuality(99, Obs(10.0, 10.0));
  ledger.RecordQuality(1, Obs(10.0, 10.0));
  ledger.RecordQuality(50, Obs(10.0, 10.0));
  const std::vector<FingerprintQuality> all = ledger.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].fingerprint, 1u);
  EXPECT_EQ(all[1].fingerprint, 50u);
  EXPECT_EQ(all[2].fingerprint, 99u);
}

TEST(QualityMonitorTest, ReportsAreDeterministic) {
  // The text report, plus every Snapshot() field it does not print.
  auto build = [] {
    FingerprintLedger ledger;
    for (int i = 0; i < 20; ++i) {
      ledger.RecordQuality(5, Obs(100.0, 80.0, 0.95));
      ledger.RecordQuality(9, Obs(40.0, 200.0));
    }
    std::string out = ledger.QualityReportText();
    for (const FingerprintQuality& q : ledger.Snapshot()) {
      out += StrPrintf(
          "%llu p90=%.9g holds=%llu/%llu hit=%.9g mean_t=%.9g "
          "baseline=%.9g recent=%.9g\n",
          static_cast<unsigned long long>(q.fingerprint), q.q_p90,
          static_cast<unsigned long long>(q.bound_holds),
          static_cast<unsigned long long>(q.bound_checks), q.bound_hit_rate,
          q.mean_threshold, q.baseline_median_q, q.recent_median_q);
    }
    return out;
  };
  EXPECT_EQ(build(), build());
  const std::string report = build();
  EXPECT_NE(report.find("0x0000000000000005 "), std::string::npos);
  EXPECT_NE(report.find(" 100%/95% "), std::string::npos);
  EXPECT_NE(report.find(" holds=20/20 hit=1 mean_t=0.95 "), std::string::npos)
      << report;
}

TEST(QualityMonitorTest, PublishMetricsIsIdempotent) {
  FingerprintLedger ledger;
  for (int i = 0; i < 10; ++i) ledger.RecordQuality(4, Obs(100.0, 50.0, 0.9));
  MetricsRegistry metrics;
  ledger.PublishMetrics(&metrics);
  const std::string once = metrics.ToJson();
  ledger.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.ToJson(), once);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("estimator.quality.fingerprints")->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("estimator.quality.bound_hit_rate")->value(), 1.0);
  EXPECT_EQ(metrics.GetSketch("estimator.quality.q_error")->count(), 10u);
}

TEST(QualityMonitorTest, ResetClearsEverything) {
  FingerprintLedger ledger;
  ledger.RecordQuality(4, Obs(100.0, 50.0));
  ledger.ResetQuality();
  EXPECT_EQ(ledger.observation_count(), 0u);
  EXPECT_EQ(ledger.quality_fingerprints(), 0u);
}

// Drifted() summarizes only the profiles Record flagged; it must equal the
// drifted subset of a full Snapshot() after any Record/Reset history.
TEST(QualityMonitorTest, DriftedMatchesSnapshotSubsetUnderRandomHistories) {
  Rng rng(18);
  bool saw_drift = false;
  bool saw_recovery = false;
  for (int round = 0; round < 12; ++round) {
    QualityConfig config;
    config.baseline_window = 2 + rng.NextBounded(8);
    config.recent_window = 2 + rng.NextBounded(8);
    config.min_observations = 1 + rng.NextBounded(6);
    config.drift_factor = round % 2 == 0 ? 2.0 : 4.0;
    FingerprintLedger ledger(config);
    std::vector<double> regime(60, 1.0);  // per-fingerprint error scale
    std::set<uint64_t> drifted_before;
    bool reset = false;
    for (int op = 0; op < 8000; ++op) {
      if (rng.NextBernoulli(0.0005)) {
        ledger.ResetQuality();
        reset = true;
      }
      const uint64_t fp = 1 + rng.NextBounded(regime.size());
      if (rng.NextBernoulli(0.1)) {
        regime[fp - 1] = rng.NextBernoulli(0.5) ? 1.0 : 10.0;
      }
      const double actual =
          100.0 * regime[fp - 1] * rng.NextDoubleInRange(1.0, 3.0);
      ledger.RecordQuality(
          fp, Obs(100.0, actual, rng.NextBernoulli(0.5) ? 0.8 : 0.0));
      if (op % 37 != 0) continue;

      std::vector<FingerprintQuality> expected;
      for (const FingerprintQuality& q : ledger.Snapshot()) {
        if (q.drifted) expected.push_back(q);
      }
      const std::vector<FingerprintQuality> drifted = ledger.Drifted();
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
      ledger.PublishMetrics(&metrics);
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

// ---- SLO columns ----

RequestObservation Req(double actual, double estimated, bool cache_hit = true,
                       uint64_t waves = 0, bool failed = false) {
  RequestObservation o;
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
  EXPECT_DOUBLE_EQ(FingerprintLedger::kWaveDelaySeconds, 0.05);
  EXPECT_DOUBLE_EQ(FingerprintLedger::kPlanChargeSeconds, 0.25);
  FingerprintLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.QueueWaitSeconds(3), 0.15);
  EXPECT_DOUBLE_EQ(ledger.ServiceSeconds(1.0, /*cache_hit=*/true, false), 1.0);
  EXPECT_DOUBLE_EQ(ledger.ServiceSeconds(1.0, /*cache_hit=*/false, false),
                   1.25);
  // A write never plans, so it never pays the planning charge.
  EXPECT_DOUBLE_EQ(ledger.ServiceSeconds(1.0, false, /*dml=*/true), 1.0);
  RequestObservation write = Req(0.0, 0.0, /*cache_hit=*/false);
  write.dml = true;
  ledger.Record(write);
  EXPECT_EQ(ledger.global().service.Quantile(0.99), 0.0);
}

TEST(SloMonitorTest, RecordsIntoAllThreeScopes) {
  FingerprintLedger ledger;
  ledger.Record(Req(1.0, 1.0));
  RequestObservation other = Req(2.0, 2.0);
  other.session_label = "s2";
  other.fingerprint = 0xBEEFu;
  ledger.Record(other);
  EXPECT_EQ(ledger.global().observed, 2u);
  EXPECT_EQ(ledger.sessions_tracked(), 2u);
  EXPECT_EQ(ledger.slo_fingerprints(), 2u);
  ASSERT_NE(ledger.SessionScope("s1"), nullptr);
  EXPECT_EQ(ledger.SessionScope("s1")->observed, 1u);
  ASSERT_NE(ledger.FingerprintScope(0xBEEFu), nullptr);
  EXPECT_EQ(ledger.FingerprintScope(0xBEEFu)->observed, 1u);
  EXPECT_EQ(ledger.SessionScope("nope"), nullptr);
  EXPECT_EQ(ledger.FingerprintScope(0x1234u), nullptr);
}

TEST(SloMonitorTest, RegretClampsAtZeroAndTracksWorstRatio) {
  FingerprintLedger ledger;
  ledger.Record(Req(0.5, 1.0));  // plan beat its estimate: no regret
  EXPECT_EQ(ledger.global().regret_positive, 0u);
  EXPECT_DOUBLE_EQ(ledger.global().regret.Quantile(0.5), 0.0);
  ledger.Record(Req(3.0, 1.0));  // 3x the promise
  EXPECT_EQ(ledger.global().regret_positive, 1u);
  EXPECT_DOUBLE_EQ(ledger.global().worst_regret_ratio, 3.0);
  ledger.Record(Req(1.5, 1.0));  // worse than promise, better than worst
  EXPECT_EQ(ledger.global().regret_positive, 2u);
  EXPECT_DOUBLE_EQ(ledger.global().worst_regret_ratio, 3.0);
}

TEST(SloMonitorTest, FailedRequestsCountQueueWaitButNotService) {
  FingerprintLedger ledger;
  ledger.Record(Req(0.0, 1.0, /*cache_hit=*/false, /*waves=*/4,
                    /*failed=*/true));
  EXPECT_EQ(ledger.global().observed, 1u);
  EXPECT_EQ(ledger.global().failed, 1u);
  EXPECT_EQ(ledger.global().queue_wait.count(), 1u);
  EXPECT_EQ(ledger.global().service.count(), 0u);
  EXPECT_EQ(ledger.global().regret.count(), 0u);
  EXPECT_EQ(ledger.global().regret_positive, 0u);
}

// The text report, plus every session scope it only ranks.
TEST(SloMonitorTest, ReportAndJsonAreDeterministic) {
  const auto build = []() {
    FingerprintLedger ledger;
    ledger.Record(Req(1.0, 1.0));
    RequestObservation other = Req(2.0, 1.0, /*cache_hit=*/false, /*waves=*/2);
    other.session_label = "s2";
    ledger.Record(other);
    ledger.Record(Req(0.0, 1.0, true, 0, /*failed=*/true));
    return ledger;
  };
  const FingerprintLedger a = build();
  const FingerprintLedger b = build();
  EXPECT_EQ(a.SloReportText(), b.SloReportText());
  EXPECT_NE(a.SloReportText().find("slo: observed=3 failed=1"),
            std::string::npos);
  for (const char* label : {"s1", "s2"}) {
    const SloScope* x = a.SessionScope(label);
    const SloScope* y = b.SessionScope(label);
    ASSERT_NE(x, nullptr) << label;
    ASSERT_NE(y, nullptr) << label;
    EXPECT_EQ(x->observed, y->observed) << label;
    EXPECT_EQ(x->failed, y->failed) << label;
    for (double q : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(x->queue_wait.Quantile(q), y->queue_wait.Quantile(q));
      EXPECT_EQ(x->service.Quantile(q), y->service.Quantile(q));
      EXPECT_EQ(x->regret.Quantile(q), y->regret.Quantile(q));
    }
    EXPECT_EQ(x->worst_regret_ratio, y->worst_regret_ratio) << label;
  }
  EXPECT_EQ(a.SessionScope("s1")->failed, 1u);
  EXPECT_EQ(a.SessionScope("s2")->observed, 1u);
}

TEST(SloMonitorTest, PublishMetricsIsIdempotent) {
  FingerprintLedger ledger;
  ledger.Record(Req(2.0, 1.0));
  ledger.Record(Req(1.0, 1.0, /*cache_hit=*/true, /*waves=*/1));
  MetricsRegistry metrics;
  ledger.PublishMetrics(&metrics);
  ledger.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("server.slo.observed")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("optimizer.regret.positive")->value(), 1u);
  EXPECT_EQ(metrics.GetSketch("server.slo.service_seconds")->count(), 2u);
  EXPECT_EQ(metrics.GetSketch("optimizer.regret.seconds")->count(), 2u);
  EXPECT_EQ(metrics.GetGauge("optimizer.regret.worst_ratio")->value(), 2.0);
}

// ---- The row as a whole ----

TEST(FingerprintLedgerTest, OneRecordFillsEveryColumnOfOneRow) {
  FingerprintLedger ledger;
  RequestObservation request = Req(2.0, 1.0);
  request.tables = {"orders", "lineitem"};
  const QualityObservation quality = Obs(100.0, 50.0, 0.8);
  ledger.Record(request, &quality);
  // A write (no quality) of the same statement adds to its SLO scope only.
  ledger.Record(Req(0.5, 0.0));
  ASSERT_NE(ledger.FingerprintScope(0xF00Du), nullptr);
  EXPECT_EQ(ledger.FingerprintScope(0xF00Du)->observed, 2u);
  ASSERT_EQ(ledger.Snapshot().size(), 1u);
  EXPECT_EQ(ledger.Snapshot()[0].fingerprint, 0xF00Du);
  EXPECT_EQ(ledger.Snapshot()[0].observations, 1u);
  EXPECT_EQ(ledger.Tables(0xF00Du),
            (std::set<std::string>{"lineitem", "orders"}));
  EXPECT_TRUE(ledger.Tables(0x1234u).empty());
}

TEST(FingerprintLedgerTest, ResetsKeepTheirSplit) {
  FingerprintLedger ledger;
  RequestObservation request = Req(2.0, 1.0);
  request.tables = {"t"};
  const QualityObservation quality = Obs(100.0, 50.0, 0.8);
  for (int i = 0; i < 32; ++i) ledger.Record(request, &quality);

  // A statistics rebuild clears only the quality columns.
  ledger.ResetQuality();
  EXPECT_EQ(ledger.observation_count(), 0u);
  EXPECT_TRUE(ledger.Snapshot().empty());
  ASSERT_NE(ledger.FingerprintScope(0xF00Du), nullptr);
  EXPECT_EQ(ledger.FingerprintScope(0xF00Du)->observed, 32u);
  EXPECT_EQ(ledger.Tables(0xF00Du), std::set<std::string>{"t"});
}

TEST(FingerprintLedgerTest, RowTextShowsEveryColumn) {
  FingerprintLedger ledger;
  EXPECT_EQ(ledger.RowText(0xF00Du),
            "fp: no ledger row for 000000000000f00d\n");

  RequestObservation request = Req(2.0, 1.0);
  request.tables = {"orders", "lineitem"};
  const QualityObservation quality = Obs(100.0, 50.0, 0.8);
  for (int i = 0; i < 32; ++i) ledger.Record(request, &quality);
  EXPECT_NE(ledger.RowText(0xF00Du).find("  winner: no provenance retained\n"),
            std::string::npos);
  PlanProvenanceRecord plan;
  plan.fingerprint = 0xF00Du;
  plan.plan_label = "Seq(orders)";
  plan.estimator = "robust";
  ledger.RecordPlan(plan, "miss");
  const std::string text = ledger.RowText(0xF00Du);
  EXPECT_EQ(text.rfind("fp 000000000000f00d reads {lineitem,orders}\n", 0),
            0u)
      << text;
  EXPECT_NE(text.find("  slo: observed=32 failed=0 "), std::string::npos);
  EXPECT_NE(text.find("regret_positive=32"), std::string::npos);
  EXPECT_NE(text.find("0x000000000000f00d     32 "), std::string::npos)
      << text;
  EXPECT_NE(text.find(WinnerLine(plan)), std::string::npos);

  // A statistics rebuild clears the quality columns; the plan stays.
  ledger.ResetQuality();
  const std::string reset = ledger.RowText(0xF00Du);
  EXPECT_NE(reset.find("quality: no observations"), std::string::npos);
  EXPECT_NE(reset.find(WinnerLine(plan)), std::string::npos);
}

// The request id of `fingerprint`'s slowest (or incident) exemplar; 0 when
// its row holds none.
uint64_t ExemplarId(const FingerprintLedger& ledger, bool slowest,
                    uint64_t fingerprint = 0xF00Du) {
  for (const FingerprintLedger::Exemplar& exemplar : ledger.Exemplars()) {
    if (exemplar.fingerprint == fingerprint &&
        (slowest ? exemplar.slowest : exemplar.incident)) {
      return exemplar.trace->request_id;
    }
  }
  return 0;
}

// A plan record for `fingerprint` at `epoch` whose single candidate's curve
// is flat at `cost`.
PlanProvenanceRecord PlanAt(uint64_t fingerprint, uint64_t epoch,
                            double cost) {
  PlanProvenanceRecord plan;
  plan.fingerprint = fingerprint;
  plan.threshold_bits = 0x3FE999999999999Au;
  plan.estimator = "robust";
  plan.epoch = epoch;
  plan.plan_label = "Seq(t)";
  plan.estimated_cost = cost;
  plan.sensitivity.captured = true;
  plan.sensitivity.available = true;
  plan.sensitivity.threshold = 0.8;
  plan.sensitivity.grid = {0.10, 0.50, 0.95};
  plan.sensitivity.selectivity = {0.05, 0.10, 0.20};
  plan.sensitivity.candidates = {{"Seq(t)", cost, 1.0, true,
                                  {cost, cost, cost}}};
  FinalizeSensitivity(&plan.sensitivity);
  return plan;
}

// The ledger's one bound: a seeded stream of far more than kMaxRows
// fingerprints, with a few hot ones recurring, never holds more than
// kMaxRows rows; the hot rows keep every column, and an evicted row takes
// its drift flag, tables, plans, diffs and exemplars with it.
TEST(FingerprintLedgerTest, BoundedRowsKeepHotFingerprints) {
  QualityConfig quality_config;
  quality_config.baseline_window = 4;
  quality_config.recent_window = 4;
  quality_config.min_observations = 2;
  FingerprintLedger ledger(quality_config);
  constexpr uint64_t kHot[] = {0xA1, 0xA2, 0xA3, 0xA4};
  constexpr uint64_t kEvicted = 0xC0;
  uint64_t next_request = 0;
  const auto record = [&](uint64_t fingerprint, uint64_t epoch,
                          double q_error) {
    RequestObservation request;
    request.session_label = "s1";
    request.fingerprint = fingerprint;
    request.actual_seconds = 1.0;
    request.estimated_seconds = 1.0;
    request.tables = {StrPrintf("t%llu",
                                static_cast<unsigned long long>(fingerprint))};
    const QualityObservation quality = Obs(100.0, 100.0 * q_error, 0.8);
    // Every request is traced; the early drifter's are also incidents.
    RequestTrace trace;
    trace.request_id = ++next_request;
    trace.service_seconds = 1.0;
    trace.fault_fires = fingerprint == kEvicted ? 1 : 0;
    ledger.Record(request, &quality, &trace);
    return ledger.RecordPlan(PlanAt(fingerprint, epoch, 1.0 + epoch * 0.01),
                             "stale_epoch");
  };

  // A fingerprint that drifts early and is never seen again.
  for (uint64_t i = 0; i < 8; ++i) record(kEvicted, i, i < 4 ? 1.0 : 10.0);
  ASSERT_EQ(ledger.Drifted().size(), 1u);
  ASSERT_EQ(ledger.plan_diffs().size(), 7u);
  ASSERT_NE(ExemplarId(ledger, /*slowest=*/true, kEvicted), 0u);
  ASSERT_NE(ExemplarId(ledger, /*slowest=*/false, kEvicted), 0u);

  Rng rng(2024);
  std::map<uint64_t, uint64_t> hot_events;
  std::optional<PlanDiffRecord> last_hot_diff;
  std::set<uint64_t> distinct = {kEvicted};
  for (uint64_t i = 0; i < 2000; ++i) {
    if (i % 8 == 0) {
      const uint64_t hot = kHot[(i / 8) % 4];
      // The first hot fingerprint drifts once its baseline is full.
      const bool drifting = hot == kHot[0] && hot_events[hot] >= 4;
      const PlanDiffRecord* diff = record(hot, i, drifting ? 10.0 : 1.0);
      if (diff != nullptr) last_hot_diff = *diff;
      ++hot_events[hot];
      distinct.insert(hot);
    } else {
      const uint64_t cold = 0x100000 + rng.NextBounded(1 << 20);
      record(cold, i, 1.0);
      distinct.insert(cold);
    }
    ASSERT_LE(ledger.size(), FingerprintLedger::kMaxRows) << "event " << i;
  }
  ASSERT_GT(distinct.size(), 10 * FingerprintLedger::kMaxRows);
  EXPECT_EQ(ledger.size(), FingerprintLedger::kMaxRows);
  EXPECT_EQ(ledger.slo_fingerprints(), FingerprintLedger::kMaxRows);
  EXPECT_EQ(ledger.quality_fingerprints(), FingerprintLedger::kMaxRows);
  EXPECT_EQ(ledger.plan_count(), FingerprintLedger::kMaxRows);
  EXPECT_LE(ledger.plan_diffs().size(), FingerprintLedger::kMaxPlanDiffs);
  // One slowest exemplar per row, and no incident outlived its row.
  EXPECT_EQ(ledger.Exemplars().size(), FingerprintLedger::kMaxRows);

  // Hot rows keep their SLO, quality, table and plan columns.
  for (uint64_t hot : kHot) {
    SCOPED_TRACE(FingerprintHex(hot));
    ASSERT_NE(ledger.FingerprintScope(hot), nullptr);
    EXPECT_EQ(ledger.FingerprintScope(hot)->observed, hot_events[hot]);
    EXPECT_FALSE(ledger.Tables(hot).empty());
    ASSERT_NE(ledger.FindPlan(hot), nullptr);
    EXPECT_NE(ledger.RowText(hot).find(WinnerLine(*ledger.FindPlan(hot))),
              std::string::npos);
    EXPECT_NE(ExemplarId(ledger, /*slowest=*/true, hot), 0u);
  }
  const std::vector<FingerprintQuality> snapshot = ledger.Snapshot();
  const auto hot_quality = std::find_if(
      snapshot.begin(), snapshot.end(),
      [&](const FingerprintQuality& q) { return q.fingerprint == kHot[0]; });
  ASSERT_NE(hot_quality, snapshot.end());
  EXPECT_EQ(hot_quality->observations, hot_events[kHot[0]]);
  uint64_t held_observations = 0;
  for (const FingerprintQuality& q : snapshot) {
    held_observations += q.observations;
  }
  EXPECT_EQ(ledger.observation_count(), held_observations);

  // The drifted hot row is the only flagged one: the early drifter went
  // with its row.
  const std::vector<FingerprintQuality> drifted = ledger.Drifted();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].fingerprint, kHot[0]);
  EXPECT_TRUE(ledger.Tables(kEvicted).empty());
  EXPECT_EQ(ExemplarId(ledger, /*slowest=*/true, kEvicted), 0u);
  EXPECT_EQ(ExemplarId(ledger, /*slowest=*/false, kEvicted), 0u);
  EXPECT_EQ(ledger.RowText(kEvicted),
            "fp: no ledger row for 00000000000000c0\n");
  EXPECT_EQ(ledger.PlanReportFor(kEvicted),
            "whyplan: no provenance retained for fp=00000000000000c0\n");
  for (const PlanDiffRecord& diff : ledger.plan_diffs()) {
    EXPECT_NE(diff.fingerprint, kEvicted);
  }
  EXPECT_EQ(ledger.plan_stats().diffs_evicted,
            ledger.plan_stats().diffs - ledger.plan_diffs().size());

  // Re-planning a row that holds a plan files a diff with the trigger and
  // both winner curves on the shared grid.
  ASSERT_TRUE(last_hot_diff.has_value());
  const uint64_t last_hot = kHot[(1999 / 8) % 4];
  EXPECT_EQ(last_hot_diff->fingerprint, last_hot);
  EXPECT_EQ(last_hot_diff->trigger, "stale_epoch");
  EXPECT_EQ(last_hot_diff->grid.size(), 3u);
  EXPECT_EQ(last_hot_diff->old_curve.size(), 3u);
  EXPECT_EQ(last_hot_diff->new_curve.size(), 3u);
  EXPECT_LT(last_hot_diff->old_curve[0], last_hot_diff->new_curve[0]);
  EXPECT_NE(ledger.PlanReportFor(last_hot).find("[stale_epoch]"),
            std::string::npos);
}

// ---- Exemplars ----

// A finished request's one-span trace; a failed one carries a typed status.
RequestTrace Trace(uint64_t request_id, double service_seconds,
                   bool failed = false) {
  RequestTrace trace;
  trace.request_id = request_id;
  trace.session_id = 1;
  trace.session_label = "s1";
  trace.service_seconds = service_seconds;
  trace.failed = failed;
  if (failed) trace.status = "Unavailable";
  Tracer tracer;
  const uint64_t span = tracer.BeginSpan("server", "request");
  tracer.EndSpan(span, {{"status", trace.status}});
  trace.events = tracer.ReleaseEvents();
  return trace;
}

// Records `trace` as a request of fingerprint 0xF00D.
void RecordTraced(FingerprintLedger* ledger, const RequestTrace& trace) {
  ledger->Record(Req(trace.service_seconds, 0.0, /*cache_hit=*/true,
                     /*waves=*/0, trace.failed),
                 nullptr, &trace);
}

uint64_t SlowestId(const FingerprintLedger& ledger) {
  return ExemplarId(ledger, /*slowest=*/true);
}

uint64_t IncidentId(const FingerprintLedger& ledger) {
  return ExemplarId(ledger, /*slowest=*/false);
}

TEST(FingerprintLedgerTest, OnlyStrictlySlowerReplacesSlowestExemplar) {
  FingerprintLedger ledger;
  RecordTraced(&ledger, Trace(1, 1.0));
  EXPECT_EQ(SlowestId(ledger), 1u);
  RecordTraced(&ledger, Trace(2, 3.0));
  EXPECT_EQ(SlowestId(ledger), 2u);
  RecordTraced(&ledger, Trace(3, 2.0));
  EXPECT_EQ(SlowestId(ledger), 2u);
  // A failure is no slowest candidate: the service column skips it too.
  RecordTraced(&ledger, Trace(4, 9.0, /*failed=*/true));
  EXPECT_EQ(SlowestId(ledger), 2u);
  const std::vector<FingerprintLedger::Exemplar> exemplars = ledger.Exemplars();
  ASSERT_EQ(exemplars.size(), 2u);  // slowest request 2, incident request 4
  EXPECT_EQ(exemplars[0].trace->service_seconds, 3.0);
}

TEST(FingerprintLedgerTest, SlowestExemplarTieKeepsIncumbent) {
  FingerprintLedger ledger;
  RecordTraced(&ledger, Trace(5, 1.0));
  RecordTraced(&ledger, Trace(7, 1.0));
  RecordTraced(&ledger, Trace(3, 1.0));
  EXPECT_EQ(SlowestId(ledger), 5u);
  RecordTraced(&ledger, Trace(9, 1.5));
  EXPECT_EQ(SlowestId(ledger), 9u);
}

TEST(FingerprintLedgerTest, FailureTripAndFaultFireEachReplaceIncident) {
  FingerprintLedger ledger;
  RecordTraced(&ledger, Trace(1, 0.0, /*failed=*/true));
  EXPECT_EQ(IncidentId(ledger), 1u);
  RequestTrace tripped = Trace(2, 0.1);
  tripped.governor_tripped = true;
  RecordTraced(&ledger, tripped);
  EXPECT_EQ(IncidentId(ledger), 2u);
  RequestTrace faulted = Trace(3, 0.1);
  faulted.fault_fires = 2;
  RecordTraced(&ledger, faulted);
  EXPECT_EQ(IncidentId(ledger), 3u);
  // The newest failure replaces it again, however fast.
  RecordTraced(&ledger, Trace(4, 0.0, /*failed=*/true));
  EXPECT_EQ(IncidentId(ledger), 4u);
}

TEST(FingerprintLedgerTest, FastRequestChangesNeitherExemplar) {
  FingerprintLedger ledger;
  RecordTraced(&ledger, Trace(1, 2.0));
  RecordTraced(&ledger, Trace(2, 0.0, /*failed=*/true));
  const std::string before = ledger.ExemplarText();
  RecordTraced(&ledger, Trace(3, 0.5));
  EXPECT_EQ(SlowestId(ledger), 1u);
  EXPECT_EQ(IncidentId(ledger), 2u);
  EXPECT_EQ(ledger.ExemplarText(), before);
}

TEST(FingerprintLedgerTest, NullTraceFilesNothing) {
  FingerprintLedger ledger;
  ledger.Record(Req(5.0, 1.0, /*cache_hit=*/true, /*waves=*/0,
                    /*failed=*/true));
  ledger.Record(Req(5.0, 1.0));
  ASSERT_NE(ledger.FingerprintScope(0xF00Du), nullptr);
  EXPECT_TRUE(ledger.Exemplars().empty());
  EXPECT_EQ(ledger.ExemplarText(), "exemplars: 0 request(s)\n");
  EXPECT_EQ(ledger.ExemplarChromeTrace(), "[]");
}

TEST(FingerprintLedgerTest, ResetQualityKeepsExemplars) {
  FingerprintLedger ledger;
  RecordTraced(&ledger, Trace(1, 2.0));
  RecordTraced(&ledger, Trace(2, 0.0, /*failed=*/true));
  ledger.ResetQuality();
  EXPECT_EQ(SlowestId(ledger), 1u);
  EXPECT_EQ(IncidentId(ledger), 2u);
}

TEST(FingerprintLedgerTest, DualReasonExemplarIsListedOnce) {
  FingerprintLedger ledger;
  RequestTrace faulted = Trace(1, 5.0);
  faulted.fault_fires = 1;
  RecordTraced(&ledger, faulted);  // slowest and incident at once
  ASSERT_EQ(ledger.Exemplars().size(), 1u);
  EXPECT_TRUE(ledger.Exemplars()[0].slowest);
  EXPECT_TRUE(ledger.Exemplars()[0].incident);
  EXPECT_NE(ledger.ExemplarText().find("[incident,slowest] "),
            std::string::npos);
  // A slower request takes the slowest slot; request 1 stays the incident.
  RecordTraced(&ledger, Trace(2, 9.0));
  EXPECT_EQ(SlowestId(ledger), 2u);
  EXPECT_EQ(IncidentId(ledger), 1u);
  EXPECT_EQ(ledger.Exemplars().size(), 2u);
  const std::string row = ledger.RowText(0xF00Du);
  EXPECT_NE(row.find("  [incident        ] req=1 session=1 (s1) status=OK "),
            std::string::npos)
      << row;
  EXPECT_NE(row.find("  [slowest         ] req=2 "), std::string::npos) << row;
}

TEST(FingerprintLedgerTest, ExemplarLanesGroupBySession) {
  FingerprintLedger ledger;
  RequestTrace other = Trace(1, 0.0, /*failed=*/true);
  other.session_id = 9;
  other.session_label = "other";
  RecordTraced(&ledger, other);
  RequestObservation request = Req(0.0, 0.0, true, 0, /*failed=*/true);
  request.fingerprint = 0xBEEFu;
  const RequestTrace second = Trace(2, 0.0, /*failed=*/true);
  ledger.Record(request, nullptr, &second);
  const std::string json = ledger.ExemplarChromeTrace();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("other"), std::string::npos);
  // Session 1's lane sorts before session 9's despite its later request.
  EXPECT_LT(json.find("request 2 [Unavailable]"),
            json.find("request 1 [Unavailable]"));
  // The text listing names each exemplar's row, in request order.
  const std::string text = ledger.ExemplarText();
  EXPECT_LT(text.find("fp=000000000000f00d req=1 "),
            text.find("fp=000000000000beef req=2 "));
}

}  // namespace
}  // namespace obs
}  // namespace robustqo
