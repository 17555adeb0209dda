// The plan-choice provenance observatory, end to end: the serving layer
// files a record for every fresh optimizer run (why the winner won, how
// fragile it is across the selectivity posterior), re-plans file plan-diff
// records naming the PlanCacheOutcome trigger, and every surface is
// byte-identical across thread counts; EXPLAIN ANALYZE carries a
// sensitivity section only while the database's capture is on. Also pins
// the
// report-overwrite regression: a request whose fault fires span both the
// PLAN and EXECUTE phases must report every fire in its retained trace —
// including when planning itself fails (the aborted-trace path used to
// drop the PLAN-phase fires).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/explain_analyze.h"
#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "obs/plan_provenance.h"
#include "perf/task_pool.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/macros.h"
#include "util/rng.h"
#include "workload/traffic_harness.h"

namespace robustqo {
namespace {

constexpr uint64_t kBaseRows = 2000;

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

opt::QuerySpec ReadingsQuery(int64_t below) {
  opt::QuerySpec query;
  query.tables.push_back(
      {"readings", expr::Lt(expr::Col("r_value"), expr::LitInt(below))});
  return query;
}

constexpr unsigned kThreadCounts[] = {1, 4, 8};

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = perf::ThreadCount(); }
  void TearDown() override { perf::SetThreadCount(saved_threads_); }

 private:
  unsigned saved_threads_ = 1;
};

TEST_F(ProvenanceTest, ServiceFilesRecordOnPlanMissOnly) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  server::QueryService service(db.get(), {});
  const server::SessionId session = service.OpenSession();

  const opt::QuerySpec query = ReadingsQuery(50);
  const uint64_t fp = server::FingerprintQuery(query);
  ASSERT_TRUE(service.ExecuteSpec(session, query).status.ok());
  ASSERT_EQ(service.ledger()->plan_count(), 1u);
  const obs::PlanProvenanceRecord* record = service.ledger()->FindPlan(fp);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->estimator, "robust");
  EXPECT_FALSE(record->plan_label.empty());
  EXPECT_GT(record->estimated_cost, 0.0);
  ASSERT_TRUE(record->sensitivity.captured);
  ASSERT_TRUE(record->sensitivity.available)
      << record->sensitivity.unavailable_reason;
  EXPECT_EQ(record->sensitivity.grid.size(), 6u);
  EXPECT_EQ(record->sensitivity.selectivity.size(), 6u);
  ASSERT_FALSE(record->sensitivity.candidates.empty());
  EXPECT_EQ(record->sensitivity.candidates.front().label,
            record->sensitivity.plan_label);
  EXPECT_FALSE(record->sensitivity.verdict.empty());
  // The winner's curve reproduces its ranking cost at the planning
  // threshold's own selectivity — the cost_at(1.0) == cost invariant.
  EXPECT_FALSE(record->sensitivity.candidates.front().cost_at.empty());

  // A cache hit must not refresh or duplicate the record.
  server::QueryResponse hit = service.ExecuteSpec(session, query);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(service.ledger()->plan_count(), 1u);
  EXPECT_EQ(service.ledger()->plan_stats().recorded, 1u);
}

TEST_F(ProvenanceTest, ExplainAnalyzeOmitsSensitivityWhileCaptureIsOff) {
  // The database-level capture is off by default: EXPLAIN ANALYZE carries
  // no sensitivity section.
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  auto analyzed = core::ExplainAnalyze(db.get(), ReadingsQuery(50),
                                       core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed.value().ToText().find("sensitivity:"),
            std::string::npos);
  EXPECT_EQ(analyzed.value().ToJson().find("\"sensitivity\""),
            std::string::npos);
}

TEST_F(ProvenanceTest, ExplainAnalyzeCarriesSensitivityWhenCaptureIsOn) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  db->SetProvenanceCapture(true);
  auto analyzed = core::ExplainAnalyze(db.get(), ReadingsQuery(50),
                                       core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok());
  const std::string text = analyzed.value().ToText();
  EXPECT_NE(text.find("sensitivity:"), std::string::npos);
  EXPECT_NE(text.find("[winner]"), std::string::npos);
  EXPECT_NE(text.find("verdict:"), std::string::npos);
  const std::string json = analyzed.value().ToJson();
  EXPECT_NE(json.find("\"sensitivity\":{\"captured\":true"),
            std::string::npos);
  const std::string dot = analyzed.value().ToDot();
  EXPECT_NE(dot.find("sensitivity [shape=note"), std::string::npos);
}

// The drift arc: a plan is cached and served hot; its data floods
// underneath the stale statistics; the drift watchdog rebuilds the
// statistics, which evicts the plan at its next lookup; the forced re-plan
// files a plan-diff record whose trigger names the plan-cache outcome and
// whose curves allow a cost-curve delta.
TEST_F(ProvenanceTest, DriftEvictionFilesPlanDiffWithTriggerAndCurves) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  server::ServerConfig config;
  config.quality.baseline_window = 16;
  config.quality.recent_window = 16;
  config.quality.min_observations = 8;
  config.quality.drift_factor = 4.0;
  server::QueryService service(db.get(), config);
  const server::SessionId session = service.OpenSession();

  const opt::QuerySpec drifting = ReadingsQuery(50);
  const uint64_t fp = server::FingerprintQuery(drifting);
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(service.ExecuteSpec(session, drifting).status.ok());
  }
  ASSERT_EQ(service.ledger()->plan_count(), 1u);
  ASSERT_TRUE(service.ledger()->plan_diffs().empty());
  const uint64_t first_epoch = service.ledger()->FindPlan(fp)->epoch;
  ASSERT_EQ(first_epoch, db->statistics()->epoch());

  // Flood rows matching the predicate without rebuilding statistics.
  storage::Table* readings = db->catalog()->GetMutableTable("readings");
  ASSERT_NE(readings, nullptr);
  Rng rng(77);
  for (uint64_t i = 0; i < 3000; ++i) {
    readings->AppendRow(
        {storage::Value::Int64(static_cast<int64_t>(kBaseRows + i)),
         storage::Value::Int64(static_cast<int64_t>(rng.NextBounded(50)))});
  }
  for (int round = 0; round < 40 && db->statistics()->epoch() == first_epoch;
       ++round) {
    ASSERT_TRUE(service.ExecuteSpec(session, drifting).status.ok());
  }
  ASSERT_GT(db->statistics()->epoch(), first_epoch) << "drift never tripped";

  // The stale entry is dropped and re-planned at the new statistics
  // epoch, and the observatory files the diff.
  ASSERT_TRUE(service.ExecuteSpec(session, drifting).status.ok());
  const auto& diffs = service.ledger()->plan_diffs();
  ASSERT_FALSE(diffs.empty());
  const obs::PlanDiffRecord* diff = &diffs.front();
  EXPECT_EQ(diff->fingerprint, fp);
  EXPECT_EQ(diff->trigger, "stale_epoch");
  EXPECT_FALSE(diff->old_label.empty());
  EXPECT_FALSE(diff->new_label.empty());
  // Both sides captured sensitivity, so the record supports a per-quantile
  // cost-curve delta on a shared grid.
  ASSERT_FALSE(diff->grid.empty());
  EXPECT_EQ(diff->old_curve.size(), diff->grid.size());
  EXPECT_EQ(diff->new_curve.size(), diff->grid.size());
  EXPECT_FALSE(diff->new_verdict.empty());
  // The refreshed record supersedes the pre-flood one under the same key.
  EXPECT_GT(service.ledger()->FindPlan(fp)->epoch, first_epoch);
  // The .whyplan body stitches the arc together.
  const std::string report = service.ledger()->PlanReportFor(fp);
  EXPECT_NE(report.find("[stale_epoch]"), std::string::npos);
  EXPECT_NE(report.find("curve delta:"), std::string::npos);
}

TEST_F(ProvenanceTest, WhyplanAndTrafficBytesIdenticalAcrossThreadCounts) {
  workload::TrafficConfig config;
  config.clients = 200;
  config.duration_seconds = 10.0;
  config.think_seconds = 4.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  config.thresholds = {0.0, 0.95};

  std::string reference_summary;
  std::string reference_whyplan;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    std::unique_ptr<core::Database> db = MakeReadingsDatabase();
    server::ServerConfig server_config;
    server_config.admission.max_concurrent = 8;
    server_config.admission.max_queue_depth = 128;
    server::QueryService service(db.get(), server_config);
    const workload::TrafficReport report =
        workload::RunTraffic(&service, config);
    EXPECT_GT(report.completed, 100u);
    ASSERT_GT(service.ledger()->plan_count(), 0u);
    std::string whyplan = service.ledger()->PlanReportText();
    for (const obs::PlanProvenanceRecord* record :
         service.ledger()->PlanSnapshot()) {
      whyplan += service.ledger()->PlanReportFor(record->fingerprint);
    }
    if (threads == 1) {
      reference_summary = report.Summary();
      reference_whyplan = whyplan;
    } else {
      EXPECT_EQ(report.Summary(), reference_summary) << "threads=" << threads;
      EXPECT_EQ(whyplan, reference_whyplan) << "threads=" << threads;
    }
  }
  EXPECT_NE(reference_whyplan.find("curve delta:"), std::string::npos)
      << reference_whyplan;
}

// Report-overwrite regression: fault fires counted in the PLAN phase must
// survive into the incident exemplar when the request later fails — in EXECUTE, and on the aborted path where
// planning itself fails (the aborted-trace path used to zero them).
// The ledger's incident exemplars, in request order.
std::vector<const obs::RequestTrace*> IncidentTraces(
    const server::QueryService& service) {
  std::vector<const obs::RequestTrace*> out;
  for (const obs::FingerprintLedger::Exemplar& exemplar :
       service.ledger()->Exemplars()) {
    if (exemplar.incident) out.push_back(exemplar.trace);
  }
  return out;
}

TEST_F(ProvenanceTest, FaultFiresAccumulateAcrossPlanAndExecutePhases) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  server::ServerConfig config;
  config.trace_requests = true;
  server::QueryService service(db.get(), config);
  const server::SessionId session = service.OpenSession();

  // PLAN-phase fire: every plan-cache lookup degrades to a miss.
  // EXECUTE-phase fire: every operator workspace allocation fails.
  db->fault_injector()->Arm(fault::sites::kPlanCacheLookup,
                            fault::FaultSpec::Always());
  fault::FaultSpec alloc = fault::FaultSpec::Always();
  alloc.code = StatusCode::kResourceExhausted;
  db->fault_injector()->Arm(fault::sites::kOperatorAlloc, alloc);

  server::QueryResponse failed = service.ExecuteSpec(session, ReadingsQuery(50));
  EXPECT_FALSE(failed.status.ok());
  const auto traces = IncidentTraces(service);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0]->failed);
  EXPECT_GE(traces[0]->fault_fires, 2u)
      << "PLAN-phase fire lost: trace reports " << traces[0]->fault_fires;
  db->fault_injector()->DisarmAll();
}

TEST_F(ProvenanceTest, AbortedPlanTraceKeepsPlanPhaseFaultFires) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  server::ServerConfig config;
  config.trace_requests = true;
  server::QueryService service(db.get(), config);
  const server::SessionId session = service.OpenSession();

  db->fault_injector()->Arm(fault::sites::kPlanCacheLookup,
                            fault::FaultSpec::Always());
  // Planning fails outright: the spec names a table the catalog lacks.
  opt::QuerySpec bogus;
  bogus.tables.push_back({"no_such_table", nullptr});
  server::QueryResponse failed = service.ExecuteSpec(session, bogus);
  EXPECT_FALSE(failed.status.ok());
  const auto traces = IncidentTraces(service);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0]->failed);
  EXPECT_GE(traces[0]->fault_fires, 1u)
      << "aborted-plan trace dropped the degraded-lookup fire";
  db->fault_injector()->DisarmAll();
}

}  // namespace
}  // namespace robustqo
