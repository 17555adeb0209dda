#include "obs/plan_provenance.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/fingerprint_ledger.h"
#include "obs/metrics.h"

namespace robustqo {
namespace obs {
namespace {

PlanSensitivity MakeSensitivity(std::vector<CandidateCurve> candidates) {
  PlanSensitivity s;
  s.captured = true;
  s.available = true;
  s.threshold = 0.8;
  s.grid = {0.10, 0.50, 0.95};
  s.selectivity = {0.05, 0.10, 0.20};
  s.plan_label = candidates.empty() ? "" : candidates.front().label;
  s.candidates = std::move(candidates);
  FinalizeSensitivity(&s);
  return s;
}

PlanProvenanceRecord MakeRecord(uint64_t fingerprint, uint64_t epoch,
                                const std::string& label, double cost) {
  PlanProvenanceRecord record;
  record.fingerprint = fingerprint;
  record.threshold_bits = 0x3FE999999999999Au;
  record.estimator = "robust";
  record.epoch = epoch;
  record.plan_label = label;
  record.estimated_cost = cost;
  record.estimated_rows = 100.0;
  record.sensitivity =
      MakeSensitivity({{label, cost, 100.0, true, {cost, cost, cost}}});
  return record;
}

TEST(FinalizeSensitivityTest, StableWhenWinnerDominatesEverywhere) {
  PlanSensitivity s = MakeSensitivity({
      {"HJ", 0.5, 100.0, true, {0.50, 0.52, 0.55}},
      {"INLJ", 0.6, 100.0, true, {0.58, 0.61, 0.66}},
  });
  EXPECT_TRUE(s.stable);
  EXPECT_DOUBLE_EQ(s.max_regret_pct, 0.0);
  EXPECT_DOUBLE_EQ(s.crossover_quantile, -1.0);
  EXPECT_EQ(s.verdict,
            "winner dominates at every grid point across p10-p95 (stable)");
}

TEST(FinalizeSensitivityTest, CrossoverInterpolatesBetweenGridPoints) {
  // Winner flat at 0.5; rival goes 0.4 -> 0.6 between p10 and p50, so the
  // curves cross halfway: p30. The rival is cheaper at p10 already? No —
  // rival is 0.6 at p10 and 0.4 at p95: make it cross inside the grid.
  PlanSensitivity s = MakeSensitivity({
      {"Seq", 0.5, 100.0, true, {0.50, 0.50, 0.50}},
      {"Ix", 0.55, 100.0, true, {0.60, 0.40, 0.30}},
  });
  EXPECT_FALSE(s.stable);
  // Gap winner-rival goes -0.10 at p10 to +0.10 at p50: crossing at the
  // midpoint quantile 0.30.
  EXPECT_NEAR(s.crossover_quantile, 0.30, 1e-9);
  EXPECT_EQ(s.crossover_rival, "Ix");
  EXPECT_GT(s.max_regret_pct, 0.0);
  EXPECT_NE(s.verdict.find("crossover at p30 vs Ix"), std::string::npos);
}

TEST(FinalizeSensitivityTest, CrossoverAtFirstGridPointUsesThatQuantile) {
  PlanSensitivity s = MakeSensitivity({
      {"Seq", 0.5, 100.0, true, {0.50, 0.50, 0.50}},
      {"Ix", 0.55, 100.0, true, {0.40, 0.45, 0.60}},
  });
  EXPECT_FALSE(s.stable);
  EXPECT_NEAR(s.crossover_quantile, 0.10, 1e-9);
}

TEST(FinalizeSensitivityTest, UnavailableKeepsReason) {
  PlanSensitivity s;
  s.captured = true;
  s.available = false;
  s.unavailable_reason = "estimator has no posterior";
  FinalizeSensitivity(&s);
  EXPECT_FALSE(s.stable);
  EXPECT_EQ(s.verdict,
            "sensitivity unavailable (estimator has no posterior)");
}

TEST(FinalizeSensitivityTest, IsIdempotent) {
  PlanSensitivity s = MakeSensitivity({
      {"Seq", 0.5, 100.0, true, {0.50, 0.50, 0.50}},
      {"Ix", 0.55, 100.0, true, {0.60, 0.40, 0.30}},
  });
  PlanSensitivity again = s;
  FinalizeSensitivity(&again);
  EXPECT_EQ(again.verdict, s.verdict);
  EXPECT_DOUBLE_EQ(again.crossover_quantile, s.crossover_quantile);
  EXPECT_DOUBLE_EQ(again.max_regret_pct, s.max_regret_pct);
}

TEST(QuantileLabelTest, RendersPercentiles) {
  EXPECT_EQ(QuantileLabel(0.10), "p10");
  EXPECT_EQ(QuantileLabel(0.83), "p83");
  EXPECT_EQ(QuantileLabel(0.95), "p95");
}

// The plan column of the fingerprint ledger (the suite name predates the
// move of provenance records into the ledger).

TEST(PlanProvenanceStoreTest, RecordsAndFindsByFingerprint) {
  FingerprintLedger ledger;
  EXPECT_EQ(ledger.RecordPlan(MakeRecord(0xAA, 1, "Seq(t)", 0.5), "miss"),
            nullptr);
  EXPECT_EQ(ledger.RecordPlan(MakeRecord(0xBB, 1, "Ix(t)", 0.3), "miss"),
            nullptr);
  ASSERT_EQ(ledger.plan_count(), 2u);
  const PlanProvenanceRecord* found = ledger.FindPlan(0xAA);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->plan_label, "Seq(t)");
  EXPECT_EQ(ledger.FindPlan(0xCC), nullptr);
  const PlanProvenanceRecord* latest = ledger.LatestPlan();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->fingerprint, 0xBBu);
}

TEST(PlanProvenanceStoreTest, RefreshKeepsOneRecordPerKey) {
  FingerprintLedger ledger;
  ledger.RecordPlan(MakeRecord(0xAA, 1, "Seq(t)", 0.5), "miss");
  ledger.RecordPlan(MakeRecord(0xAA, 2, "Ix(t)", 0.4), "stale_epoch");
  EXPECT_EQ(ledger.plan_count(), 1u);
  EXPECT_EQ(ledger.plan_stats().recorded, 2u);
  EXPECT_EQ(ledger.FindPlan(0xAA)->plan_label, "Ix(t)");
  EXPECT_EQ(ledger.FindPlan(0xAA)->epoch, 2u);
  // A record at another T% joins the row instead of replacing it.
  PlanProvenanceRecord other_threshold = MakeRecord(0xAA, 2, "Seq(t)", 0.6);
  other_threshold.threshold_bits = 0x3FEE666666666666u;
  ledger.RecordPlan(std::move(other_threshold), "miss");
  EXPECT_EQ(ledger.plan_count(), 2u);
  EXPECT_EQ(ledger.FindPlan(0xAA)->plan_label, "Seq(t)");
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(PlanProvenanceStoreTest, EvictsLeastRecentlyRecorded) {
  FingerprintLedger ledger;
  ledger.RecordPlan(MakeRecord(0xAA, 1, "a", 0.1), "miss");
  ledger.RecordPlan(MakeRecord(0xBB, 1, "b", 0.2), "miss");
  for (uint64_t fp = 1; ledger.size() < FingerprintLedger::kMaxRows; ++fp) {
    ledger.RecordPlan(MakeRecord(0x1000 + fp, 1, "c", 0.3), "miss");
  }
  // Refresh 0xAA so 0xBB becomes the least recently recorded row.
  ledger.RecordPlan(MakeRecord(0xAA, 2, "a2", 0.15), "stale_epoch");
  ledger.RecordPlan(MakeRecord(0xCC, 1, "c", 0.3), "miss");
  EXPECT_EQ(ledger.size(), FingerprintLedger::kMaxRows);
  EXPECT_EQ(ledger.plan_count(), FingerprintLedger::kMaxRows);
  EXPECT_EQ(ledger.plan_stats().evicted, 1u);
  EXPECT_NE(ledger.FindPlan(0xAA), nullptr);
  EXPECT_EQ(ledger.FindPlan(0xBB), nullptr);
  EXPECT_NE(ledger.FindPlan(0xCC), nullptr);
}

TEST(PlanProvenanceStoreTest, DiffsAreFifoBounded) {
  FingerprintLedger ledger;
  const size_t replans = FingerprintLedger::kMaxPlanDiffs + 1;
  for (uint64_t epoch = 0; epoch <= replans; ++epoch) {
    ledger.RecordPlan(MakeRecord(0xAA, epoch, "a", 0.1), "stale_epoch");
  }
  const auto& diffs = ledger.plan_diffs();
  ASSERT_EQ(diffs.size(), FingerprintLedger::kMaxPlanDiffs);
  // The first re-plan's diff (epoch 0 -> 1) was dropped.
  EXPECT_EQ(diffs.front().old_epoch, 1u);
  EXPECT_EQ(diffs.back().new_epoch, replans);
  EXPECT_EQ(ledger.plan_stats().diffs, replans);
  EXPECT_EQ(ledger.plan_stats().diffs_evicted, 1u);
}

TEST(PlanProvenanceStoreTest, TracksFragileAndStableCounts) {
  FingerprintLedger ledger;
  ledger.RecordPlan(MakeRecord(0xAA, 1, "stable", 0.5), "miss");
  PlanProvenanceRecord fragile = MakeRecord(0xBB, 1, "Seq", 0.5);
  fragile.sensitivity = MakeSensitivity({
      {"Seq", 0.5, 100.0, true, {0.50, 0.50, 0.50}},
      {"Ix", 0.55, 100.0, true, {0.60, 0.40, 0.30}},
  });
  ledger.RecordPlan(std::move(fragile), "miss");
  EXPECT_EQ(ledger.plan_stats().stable, 1u);
  EXPECT_EQ(ledger.plan_stats().fragile, 1u);
}

TEST(PlanProvenanceStoreTest, ReportForMissIsOneLineNotice) {
  FingerprintLedger ledger;
  EXPECT_EQ(ledger.PlanReportFor(0xAB),
            "whyplan: no provenance retained for fp=00000000000000ab\n");
}

TEST(PlanProvenanceStoreTest, ReportForShowsCurvesVerdictAndDiffs) {
  FingerprintLedger ledger;
  ledger.RecordPlan(MakeRecord(0xAB, 1, "Ix", 0.4), "miss");
  PlanProvenanceRecord record = MakeRecord(0xAB, 2, "Seq", 0.5);
  record.sensitivity = MakeSensitivity({
      {"Seq", 0.5, 100.0, true, {0.50, 0.50, 0.50}},
      {"Ix", 0.55, 100.0, false, {0.55, 0.55, 0.55}},
  });
  ledger.RecordPlan(std::move(record), "stale-epoch");

  const std::string report = ledger.PlanReportFor(0xAB);
  EXPECT_NE(report.find("whyplan fp=00000000000000ab"), std::string::npos);
  EXPECT_NE(report.find("[winner]"), std::string::npos);
  EXPECT_NE(report.find("(flat: no curve)"), std::string::npos);
  EXPECT_NE(report.find("verdict: winner dominates at every grid point"),
            std::string::npos);
  EXPECT_NE(report.find("[stale-epoch] epoch 1->2 plan Ix -> Seq"),
            std::string::npos);
  EXPECT_NE(report.find("curve delta: p10=+0.1 p50=+0.1 p95=+0.1"),
            std::string::npos);
  EXPECT_NE(report.find("now: winner dominates"), std::string::npos);
}

// The column's text report, each record's `.whyplan` body and the
// SensitivityJson behind EXPLAIN ANALYZE's section.
TEST(PlanProvenanceStoreTest, JsonAndReportsAreDeterministic) {
  auto render = [] {
    FingerprintLedger ledger;
    ledger.RecordPlan(MakeRecord(0xAA, 1, "a", 0.1), "miss");
    ledger.RecordPlan(MakeRecord(0xBB, 2, "b", 0.2), "miss");
    ledger.RecordPlan(MakeRecord(0xAA, 2, "a", 0.1), "lru-evicted");
    std::string out = ledger.PlanReportText();
    for (const PlanProvenanceRecord* record : ledger.PlanSnapshot()) {
      out += ledger.PlanReportFor(record->fingerprint);
      out += SensitivityJson(record->sensitivity) + "\n";
    }
    return out;
  };
  const std::string report = render();
  EXPECT_EQ(report, render());
  EXPECT_NE(report.find("[diff    ] fp=00000000000000aa trigger=lru-evicted"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("{\"captured\":true,"), std::string::npos);
}

TEST(PlanProvenanceStoreTest, PublishMetricsSyncsToRegistryValues) {
  FingerprintLedger ledger;
  ledger.RecordPlan(MakeRecord(0xAA, 1, "a", 0.1), "miss");
  MetricsRegistry metrics;
  ledger.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("optimizer.provenance.recorded")->value(), 1u);
  EXPECT_EQ(metrics.GetGauge("optimizer.provenance.records")->value(), 1.0);
  // Publishing twice must not double-count: the ledger syncs absolute
  // values, counter-delta style.
  ledger.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("optimizer.provenance.recorded")->value(), 1u);
  ledger.RecordPlan(MakeRecord(0xBB, 1, "b", 0.2), "miss");
  ledger.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("optimizer.provenance.recorded")->value(), 2u);
  EXPECT_EQ(metrics.GetGauge("optimizer.provenance.records")->value(), 2.0);
}

TEST(PlanProvenanceStoreTest, ClearEmptiesRecordsAndDiffs) {
  // Evicting a row clears its plan records and diffs with it.
  FingerprintLedger ledger;
  ledger.RecordPlan(MakeRecord(0xAA, 1, "a", 0.1), "miss");
  ledger.RecordPlan(MakeRecord(0xAA, 2, "a", 0.1), "stale_epoch");
  ASSERT_EQ(ledger.plan_diffs().size(), 1u);
  for (uint64_t fp = 1; fp <= FingerprintLedger::kMaxRows; ++fp) {
    ledger.RecordQuality(0x1000 + fp, {"q", 10.0, 10.0, 0.0});
  }
  EXPECT_EQ(ledger.FindPlan(0xAA), nullptr);
  EXPECT_EQ(ledger.plan_count(), 0u);
  EXPECT_TRUE(ledger.plan_diffs().empty());
  EXPECT_EQ(ledger.plan_stats().diffs_evicted, 1u);
  EXPECT_EQ(ledger.LatestPlan(), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace robustqo
