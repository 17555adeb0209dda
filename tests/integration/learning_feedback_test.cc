// The learning subsystem's acceptance arc, end to end: data drifts under
// stale statistics, the drift hook evicts the cached plan, and — with
// learning ON — the replans consult the feedback store's Beta
// pseudo-counts, so the drifted fingerprint's trailing-window median
// q-error collapses (>= 2x better than the no-learning baseline on the
// same data), realized regret shrinks, and the regret tuner raises the
// fingerprint's effective T%. Also pins the kill switch: SET LEARNING OFF
// (an attached-but-disabled store) reproduces the pre-learning plans
// bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/database.h"
#include "core/explain_analyze.h"
#include "expr/expression.h"
#include "learning/feedback_store.h"
#include "perf/fingerprint.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/macros.h"
#include "util/rng.h"

namespace robustqo {
namespace {

constexpr uint64_t kBaseRows = 2000;
constexpr uint64_t kFloodRows = 3000;
constexpr int kMeasuredExecutions = 32;

std::unique_ptr<core::Database> MakeReadingsDatabase() {
  auto db = std::make_unique<core::Database>();
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < kBaseRows; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  RQO_CHECK_MSG(db->catalog()->AddTable(std::move(table)).ok(),
                "table load failed");
  db->UpdateStatistics();
  return db;
}

opt::QuerySpec DriftingQuery() {
  // r_value < 50: ~5% selectivity until the flood below pushes the true
  // selectivity past 60% while the statistics stay stale.
  opt::QuerySpec query;
  query.tables.push_back(
      {"readings", expr::Lt(expr::Col("r_value"), expr::LitInt(50))});
  return query;
}

// Floods the table with predicate-matching rows WITHOUT rebuilding
// statistics — the staleness the feedback loop exists to survive.
void FloodMatchingRows(core::Database* db) {
  storage::Table* readings = db->catalog()->GetMutableTable("readings");
  ASSERT_NE(readings, nullptr);
  Rng rng(77);
  for (uint64_t i = 0; i < kFloodRows; ++i) {
    readings->AppendRow(
        {storage::Value::Int64(static_cast<int64_t>(kBaseRows + i)),
         storage::Value::Int64(static_cast<int64_t>(rng.NextBounded(50)))});
  }
}

struct ArcOutcome {
  double recent_median_q = 0.0;      ///< drifted fp, trailing window
  double tail_mean_regret = 0.0;     ///< mean positive regret, last 8 execs
  uint64_t feedback_observations = 0;
  uint64_t tuner_raises = 0;
};

// Runs the identical drift arc with learning on or off and reports how the
// post-eviction replans fared.
ArcOutcome RunDriftArc(bool learning) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();

  server::ServerConfig config;
  config.quality.baseline_window = 16;
  config.quality.recent_window = 16;
  config.quality.min_observations = 8;
  config.quality.drift_factor = 4.0;
  // Keep the statistics stale: with background rebuild the service would
  // heal by re-sampling, and the learned corrections (which die with the
  // epoch, by design) would never need to carry the load.
  config.background_rebuild = false;
  server::QueryService service(db.get(), config);
  service.SetLearningEnabled(learning);
  const server::SessionId session = service.OpenSession();

  const opt::QuerySpec drifting = DriftingQuery();
  const uint64_t fingerprint = server::FingerprintQuery(drifting);

  // Healthy baseline, then the flood, then keep serving until the drift
  // hook evicts the cached (now badly wrong) plan.
  for (int round = 0; round < 20; ++round) {
    EXPECT_TRUE(service.ExecuteSpec(session, drifting).status.ok());
  }
  FloodMatchingRows(db.get());
  bool evicted = false;
  for (int round = 0; round < 40 && !evicted; ++round) {
    EXPECT_TRUE(service.ExecuteSpec(session, drifting).status.ok());
    evicted = service.plan_cache()->stats().invalidated_drift > 0;
  }
  EXPECT_TRUE(evicted) << service.ledger()->QualityReportText();

  // Drift-blocked = replanned every time. With learning on, each replan
  // folds the feedback store's evidence into the selectivity posterior.
  std::vector<double> regrets;
  for (int round = 0; round < kMeasuredExecutions; ++round) {
    server::QueryResponse response = service.ExecuteSpec(session, drifting);
    EXPECT_TRUE(response.status.ok());
    EXPECT_FALSE(response.cache_hit);
    if (response.result.has_value()) {
      regrets.push_back(std::max(
          0.0, response.result->simulated_seconds -
                   response.result->estimated_cost));
    }
  }

  ArcOutcome outcome;
  for (const obs::FingerprintQuality& quality :
       service.ledger()->Snapshot()) {
    if (quality.fingerprint == fingerprint) {
      outcome.recent_median_q = quality.recent_median_q;
    }
  }
  const size_t tail = std::min<size_t>(8, regrets.size());
  for (size_t i = regrets.size() - tail; i < regrets.size(); ++i) {
    outcome.tail_mean_regret += regrets[i];
  }
  if (tail > 0) outcome.tail_mean_regret /= static_cast<double>(tail);
  outcome.feedback_observations = service.feedback_store()->observations_total();
  outcome.tuner_raises = service.ledger()->raised_total();

  // The recovery arc closes with fresh statistics: the epoch bump lifts
  // the drift block (and, by design, retires the learned evidence), and
  // the statement re-caches and serves hot again.
  service.UpdateStatistics();
  server::QueryResponse replanned = service.ExecuteSpec(session, drifting);
  EXPECT_TRUE(replanned.status.ok());
  EXPECT_FALSE(replanned.cache_hit);
  EXPECT_TRUE(service.ExecuteSpec(session, drifting).cache_hit);
  return outcome;
}

TEST(LearningFeedbackTest, LearnedCorrectionsRecoverDriftedEstimates) {
  const ArcOutcome without = RunDriftArc(false);
  const ArcOutcome with = RunDriftArc(true);

  // The whole point of the loop: on the identical drifted workload the
  // learned replans must at least halve the trailing-window median
  // q-error of the drifted fingerprint.
  ASSERT_GT(without.recent_median_q, 0.0);
  ASSERT_GT(with.recent_median_q, 0.0);
  EXPECT_GE(without.recent_median_q, 2.0 * with.recent_median_q)
      << "no-learning median q=" << without.recent_median_q
      << " learned median q=" << with.recent_median_q;

  // Learned estimates stop underselling the plan, so realized regret
  // shrinks with them.
  EXPECT_LT(with.tail_mean_regret, without.tail_mean_regret);

  // The loop actually ran: observations were folded in, and the chronic
  // regret drove the tuner to raise this fingerprint's effective T%.
  EXPECT_GT(with.feedback_observations, 0u);
  EXPECT_GT(with.tuner_raises, 0u);
  EXPECT_EQ(without.feedback_observations, 0u);
  EXPECT_EQ(without.tuner_raises, 0u);
}

TEST(LearningFeedbackTest, DisabledLearningReproducesPlansBitForBit) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  FloodMatchingRows(db.get());
  const opt::QuerySpec query = DriftingQuery();

  // Reference: no feedback store attached at all.
  auto reference = db->Plan(query, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Attach a store holding strong contrary evidence, but disabled: the
  // plan must be byte-identical to the detached run.
  learn::FeedbackStore store;
  const uint64_t pred_fp = perf::FingerprintExpr(
      *expr::Lt(expr::Col("r_value"), expr::LitInt(50)));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store.Observe(pred_fp, "q", 0.05, 0.62, db->statistics()->epoch())
            .ok());
  }
  store.set_enabled(false);
  db->robust_estimator()->set_feedback_store(&store);
  auto disabled = db->Plan(query, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled.value().estimated_spj_rows,
            reference.value().estimated_spj_rows);
  EXPECT_EQ(disabled.value().estimated_cost, reference.value().estimated_cost);
  EXPECT_EQ(disabled.value().label, reference.value().label);

  // Flip it on: the same evidence now moves the estimate.
  store.set_enabled(true);
  auto enabled = db->Plan(query, core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(enabled.ok());
  EXPECT_GT(enabled.value().estimated_spj_rows,
            reference.value().estimated_spj_rows);
  db->robust_estimator()->set_feedback_store(nullptr);
}

TEST(LearningFeedbackTest, ExplainAnalyzeReportsLearnedProvenance) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  FloodMatchingRows(db.get());

  learn::FeedbackStore store;
  const uint64_t pred_fp = perf::FingerprintExpr(
      *expr::Lt(expr::Col("r_value"), expr::LitInt(50)));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store
                    .Observe(pred_fp, "{readings} :: r_value < 50", 0.05,
                             0.62, db->statistics()->epoch())
                    .ok());
  }
  db->robust_estimator()->set_feedback_store(&store);

  auto analyzed = core::ExplainAnalyze(db.get(), DriftingQuery(),
                                       core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  bool saw_learned = false;
  for (const core::PredicateReport& predicate : analyzed.value().predicates) {
    if (predicate.source != "learned") continue;
    saw_learned = true;
    EXPECT_TRUE(predicate.learned);
    EXPECT_GT(predicate.learned_n, 0.0);
    EXPECT_EQ(predicate.learned_observations, 8u);
    // Both sides of the correction are visible: the raw (sample-only)
    // selectivity and the corrected one the optimizer actually used.
    EXPECT_GE(predicate.selectivity_raw, 0.0);
    EXPECT_GT(predicate.selectivity, predicate.selectivity_raw);
  }
  EXPECT_TRUE(saw_learned) << analyzed.value().ToText();
  const std::string text = analyzed.value().ToText();
  EXPECT_NE(text.find("learned"), std::string::npos);
  const std::string json = analyzed.value().ToJson();
  EXPECT_NE(json.find("\"learned\""), std::string::npos);
  EXPECT_NE(json.find("\"selectivity_raw\""), std::string::npos);
  db->robust_estimator()->set_feedback_store(nullptr);
}

}  // namespace
}  // namespace robustqo
