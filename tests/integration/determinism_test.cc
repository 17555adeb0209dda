// The determinism contract of the parallel sampling engine, end to end:
// every user-visible artifact — EXPLAIN ANALYZE snapshots, chaos sweep
// reports, and the analytical-model figure series behind fig05/fig06 —
// must be byte-identical at 1, 4, and 8 threads. Parallelism may change
// wall-clock time, never results.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos_harness.h"
#include "core/analytical_model.h"
#include "core/database.h"
#include "core/explain_analyze.h"
#include "fault/fault_injector.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/task_pool.h"
#include "tpch/tpch_gen.h"
#include "util/macros.h"
#include "util/string_util.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"
#include "workload/scenarios.h"
#include "workload/traffic_harness.h"

namespace robustqo {
namespace {

std::unique_ptr<core::Database> MakeDatabase() {
  auto db = std::make_unique<core::Database>();
  tpch::TpchConfig config;
  config.scale_factor = 0.005;
  RQO_CHECK_MSG(tpch::LoadTpch(db->catalog(), config).ok(),
                "tpch load failed");
  stats::StatisticsConfig stats_config;
  stats_config.seed = 7;
  db->UpdateStatistics(stats_config);
  return db;
}

// A small single-table database used by the serving-layer legs: cheap to
// rebuild per thread count, deterministic contents (seeded Rng).
std::unique_ptr<core::Database> MakeReadingsDatabase() {
  auto db = std::make_unique<core::Database>();
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < 2000; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  RQO_CHECK_MSG(db->catalog()->AddTable(std::move(table)).ok(),
                "table load failed");
  db->UpdateStatistics();
  return db;
}

std::vector<opt::QuerySpec> ScenarioQueries() {
  std::vector<opt::QuerySpec> queries;
  workload::SingleTableScenario single;
  queries.push_back(single.MakeQuery(70));
  workload::ThreeTableJoinScenario join;
  queries.push_back(join.MakeQuery(12.0));
  queries.push_back(join.MakeQuery(45.0));
  return queries;
}

constexpr unsigned kThreadCounts[] = {1, 4, 8};

// Restores the global thread count after each test.
class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = perf::ThreadCount(); }
  void TearDown() override { perf::SetThreadCount(saved_threads_); }

 private:
  unsigned saved_threads_ = 1;
};

TEST_F(DeterminismTest, ExplainAnalyzeSnapshotsIdenticalAcrossThreadCounts) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  workload::ThreeTableJoinScenario scenario;
  const opt::QuerySpec query = scenario.MakeQuery(2.0);

  std::string reference_json;
  std::string reference_text;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    auto analyzed =
        core::ExplainAnalyze(db.get(), query, core::EstimatorKind::kRobustSample);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    const std::string json = analyzed.value().ToJson();
    const std::string text = analyzed.value().ToText();
    if (threads == 1) {
      reference_json = json;
      reference_text = text;
    } else {
      EXPECT_EQ(json, reference_json) << "threads=" << threads;
      EXPECT_EQ(text, reference_text) << "threads=" << threads;
    }
  }
}

TEST_F(DeterminismTest, PerfCacheCountersVisibleInExplainAnalyzeJson) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  workload::ThreeTableJoinScenario scenario;
  auto analyzed = core::ExplainAnalyze(db.get(), scenario.MakeQuery(2.0),
                                       core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::string json = analyzed.value().ToJson();
  EXPECT_NE(json.find("\"perf.cache.hit\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"perf.cache.miss\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"probe_cache_hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"beta_cache_hits\":"), std::string::npos);
}

TEST_F(DeterminismTest, ChaosSweepReportIdenticalAcrossThreadCounts) {
  // The primary database and every worker replica come from the same
  // deterministic factory, so a run's outcome is a function of (config,
  // run index) alone — the parallel sweep at 4 and 8 threads must produce
  // the exact report the sequential sweep does.
  std::unique_ptr<core::Database> db = MakeDatabase();
  workload::ChaosHarness harness(db.get());
  workload::ChaosConfig config;
  config.base_seed = 424242;
  config.runs = 24;
  config.database_factory = MakeDatabase;
  const auto queries = ScenarioQueries();

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    workload::ChaosReport report = harness.Run(config, queries);
    EXPECT_EQ(report.runs, config.runs);
    if (threads == 1) {
      reference = report.Summary();
    } else {
      EXPECT_EQ(report.Summary(), reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

// The serving layer's leg of the contract: a 1000-client traffic run —
// sessions, admission waves, plan-cache hits, quality feedback and the
// formatted summary — must be byte-identical at 1, 4 and 8 threads even
// though every admitted wave executes its requests concurrently.
TEST_F(DeterminismTest, TrafficHarnessSummaryIdenticalAcrossThreadCounts) {
  workload::TrafficConfig config;
  config.clients = 1000;
  config.duration_seconds = 10.0;
  config.think_seconds = 5.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  config.thresholds = {0.0, 0.95};

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    std::unique_ptr<core::Database> db = MakeReadingsDatabase();
    server::ServerConfig server_config;
    server_config.admission.max_concurrent = 8;
    server_config.admission.max_queue_depth = 128;
    server::QueryService service(db.get(), server_config);
    const workload::TrafficReport report =
        workload::RunTraffic(&service, config);
    EXPECT_GT(report.completed, 1000u);
    const std::string summary = report.Summary();
    if (threads == 1) {
      reference = summary;
    } else {
      EXPECT_EQ(summary, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

// One SLO scope's counters and quantiles, fixed precision.
std::string ScopeLine(const std::string& key, const obs::SloScope& s) {
  std::string out = StrPrintf(
      "%s observed=%llu failed=%llu positive=%llu worst=%.9g", key.c_str(),
      static_cast<unsigned long long>(s.observed),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.regret_positive),
      s.worst_regret_ratio);
  for (double q : {0.5, 0.95, 0.99}) {
    out += StrPrintf(" q%.2f=%.9g/%.9g/%.9g", q, s.queue_wait.Quantile(q),
                     s.service.Quantile(q), s.regret.Quantile(q));
  }
  return out + "\n";
}

// The fingerprint ledger's leg of the contract: every request is recorded
// from the sequential reduce phase in admission order, so after a traffic
// run the ledger's SLO and estimation-quality reports — per-session and
// per-fingerprint quantiles, calibration tallies and drift windows — must
// be byte-identical at 1, 4 and 8 threads. The text reports rank only the
// worst scopes, so every session's and fingerprint's scope and every
// quality profile are rendered here too.
TEST_F(DeterminismTest, LedgerReportsIdenticalAcrossThreadCounts) {
  workload::TrafficConfig config;
  config.clients = 200;
  config.duration_seconds = 10.0;
  config.think_seconds = 5.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  config.thresholds = {0.0, 0.95};

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    std::unique_ptr<core::Database> db = MakeReadingsDatabase();
    server::ServerConfig server_config;
    server_config.admission.max_concurrent = 8;
    server_config.admission.max_queue_depth = 128;
    server::QueryService service(db.get(), server_config);
    const workload::TrafficReport report =
        workload::RunTraffic(&service, config);
    EXPECT_GT(report.completed, 0u);
    const obs::FingerprintLedger& ledger = *service.ledger();
    std::string reports = ledger.SloReportText() + ledger.QualityReportText();
    for (size_t client = 0; client < config.clients; ++client) {
      const std::string label = StrPrintf("client-%zu", client);
      const obs::SloScope* scope = ledger.SessionScope(label);
      if (scope != nullptr) reports += ScopeLine(label, *scope);
    }
    for (const obs::FingerprintQuality& q : ledger.Snapshot()) {
      reports += StrPrintf(
          "0x%016llx n=%llu q=%.9g/%.9g/%.9g/%.9g holds=%llu/%llu "
          "mean_t=%.9g baseline=%.9g recent=%.9g drift=%.9g\n",
          static_cast<unsigned long long>(q.fingerprint),
          static_cast<unsigned long long>(q.observations), q.q_p50, q.q_p90,
          q.q_p99, q.q_max, static_cast<unsigned long long>(q.bound_holds),
          static_cast<unsigned long long>(q.bound_checks), q.mean_threshold,
          q.baseline_median_q, q.recent_median_q, q.drift_ratio);
      const obs::SloScope* scope = ledger.FingerprintScope(q.fingerprint);
      if (scope != nullptr) {
        reports += ScopeLine(obs::FingerprintHex(q.fingerprint), *scope);
      }
    }
    if (threads == 1) {
      reference = reports;
    } else {
      EXPECT_EQ(reports, reference) << "threads=" << threads;
    }
  }
  // The run filled both column groups — the reports are not trivially
  // identical because they are trivially empty.
  EXPECT_EQ(reference.find("slo: observed=0 "), std::string::npos)
      << reference;
  EXPECT_EQ(reference.find("0 observation(s)"), std::string::npos)
      << reference;
}

// The write-path acceptance criterion: mixed read/write traffic — where
// DML commits bump the data epoch, count toward statistics rebuilds, and can
// trigger background rebuilds mid-run — must produce a byte-identical
// summary at every thread count. Writes apply sequentially in REDUCE and
// reads pin to the wave-start snapshot, so the epoch sequence (and with
// it every answer) is a pure function of the request sequence.
TEST_F(DeterminismTest, MixedReadWriteTrafficSummaryIdenticalAcrossThreadCounts) {
  workload::TrafficConfig config;
  config.clients = 200;
  config.duration_seconds = 20.0;
  config.think_seconds = 4.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  config.thresholds = {0.0, 0.95};
  config.write_fraction = 0.25;
  config.write_statements = {
      "UPDATE readings SET r_value = r_value + 1 WHERE r_id < 20",
      "INSERT INTO readings VALUES (9001, 25), (9002, 613)",
      "DELETE FROM readings WHERE r_id = 9001",
  };

  std::string reference;
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
    EXPECT_GT(report.writes_committed, 0u);
    EXPECT_EQ(report.final_data_epoch,
              static_cast<uint64_t>(db->catalog()->data_epoch()));
    const std::string summary = report.Summary();
    if (threads == 1) {
      reference = summary;
    } else {
      EXPECT_EQ(summary, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
  EXPECT_NE(reference.find("writes:"), std::string::npos);
}

// Chaos through the serving layer: with multi-session configs the sweep's
// queries route through admission control and the plan cache, and the
// report must still be byte-identical at every thread count.
TEST_F(DeterminismTest, MultiSessionChaosSweepIdenticalAcrossThreadCounts) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  workload::ChaosHarness harness(db.get());
  workload::ChaosConfig config;
  config.base_seed = 31337;
  config.runs = 16;
  config.sessions = 3;
  config.database_factory = MakeDatabase;
  const auto queries = ScenarioQueries();

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    workload::ChaosReport report = harness.Run(config, queries);
    EXPECT_EQ(report.runs, config.runs);
    EXPECT_TRUE(report.ContractHolds()) << report.Summary();
    if (threads == 1) {
      reference = report.Summary();
    } else {
      EXPECT_EQ(report.Summary(), reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

// The fig05/fig06 figure series: regenerate the exact numbers the benches
// print and pin them across thread counts (the analytical model must not
// read any thread-dependent state).
TEST_F(DeterminismTest, AnalyticalFigureSeriesIdenticalAcrossThreadCounts) {
  auto render = []() {
    core::TwoPlanAnalyticalModel model;
    std::string out;
    std::vector<double> selectivities;
    for (int i = 0; i <= 20; ++i) selectivities.push_back(i * 0.0005);
    for (double t : {0.05, 0.20, 0.50, 0.80, 0.95}) {
      // fig05: expected time per selectivity; fig06: workload summary.
      for (double p : selectivities) {
        out += StrPrintf("%.17g\n", model.ExpectedExecutionTime(p, 1000, t));
      }
      const auto summary = model.SummarizeWorkload(selectivities, 1000, t);
      out += StrPrintf("T=%g mean=%.17g sd=%.17g\n", t, summary.mean_seconds,
                       summary.std_dev_seconds);
    }
    return out;
  };

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    const std::string rendered = render();
    if (threads == 1) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference) << "threads=" << threads;
    }
  }
}

// The exporter leg of the determinism contract: the OpenMetrics text of a
// chaos sweep's merged per-worker registries, and the Chrome-trace JSON of
// an EXPLAIN ANALYZE run, must be byte-identical at 1, 4 and 8 threads.
TEST_F(DeterminismTest, OpenMetricsExportIdenticalAcrossThreadCounts) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  workload::ChaosHarness harness(db.get());
  const auto queries = ScenarioQueries();

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    obs::MetricsRegistry merged;
    workload::ChaosConfig config;
    config.base_seed = 424242;
    config.runs = 24;
    config.database_factory = MakeDatabase;
    config.metrics = &merged;
    harness.Run(config, queries);
    const std::string om = obs::ToOpenMetrics(merged);
    // The sweep recorded into the merged registry at all.
    EXPECT_NE(om.find("rqo_db_queries_executed_total"), std::string::npos);
    EXPECT_NE(om.find("rqo_exec_query_simulated_seconds"), std::string::npos);
    if (threads == 1) {
      reference = om;
    } else {
      EXPECT_EQ(om, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST_F(DeterminismTest, ChromeTraceExportIdenticalAcrossThreadCounts) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  workload::ThreeTableJoinScenario scenario;
  const opt::QuerySpec query = scenario.MakeQuery(2.0);

  std::string reference;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    std::vector<obs::TraceEvent> trace;
    auto analyzed = core::ExplainAnalyze(
        db.get(), query, core::EstimatorKind::kRobustSample, {}, &trace);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    ASSERT_FALSE(trace.empty());
    const std::string json = obs::ToChromeTrace(trace);
    if (threads == 1) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
  // Spans from execution made it into the export.
  EXPECT_NE(reference.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(reference.find("\"cat\":\"exec\""), std::string::npos);
}

// The exemplars' leg: a traffic run with an armed fault site must hold the
// same exemplars with byte-identical text / Chrome-trace renderings at
// every thread count, and the trees must show each request's queue-wait
// charge, plan-cache outcome and the fault site that fired.
TEST_F(DeterminismTest, BlackboxDumpIdenticalAcrossThreadCounts) {
  workload::TrafficConfig config;
  config.clients = 64;
  config.duration_seconds = 10.0;
  config.think_seconds = 5.0;
  config.statements = {
      "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50",
      "SELECT COUNT(*) AS n FROM readings WHERE r_value >= 500 AND "
      "r_value < 600",
  };
  config.thresholds = {0.0, 0.95};

  std::string reference_text;
  std::string reference_trace;
  for (unsigned threads : kThreadCounts) {
    perf::SetThreadCount(threads);
    std::unique_ptr<core::Database> db = MakeReadingsDatabase();
    // Planning is sequential in admission order, so "the 3rd plan-cache
    // lookup degrades" names the same request at every thread count.
    db->fault_injector()->Arm(fault::sites::kPlanCacheLookup,
                              fault::FaultSpec::OnNth(3));
    server::ServerConfig server_config;
    server_config.admission.max_concurrent = 4;
    server_config.admission.max_queue_depth = 128;
    server_config.trace_requests = true;
    server::QueryService service(db.get(), server_config);
    const workload::TrafficReport report =
        workload::RunTraffic(&service, config);
    EXPECT_GT(report.completed, 64u);
    const std::string text = service.ledger()->ExemplarText();
    const std::string chrome = service.ledger()->ExemplarChromeTrace();
    if (threads == 1) {
      reference_text = text;
      reference_trace = chrome;
    } else {
      EXPECT_EQ(text, reference_text) << "threads=" << threads;
      EXPECT_EQ(chrome, reference_trace) << "threads=" << threads;
    }
  }
  // The exemplar span trees carry the request-lifecycle facts the black
  // box exists for: the queue-wait charge, the plan-cache outcome, and the
  // armed site that fired.
  EXPECT_NE(reference_trace.find("\"queue_wait_seconds\""),
            std::string::npos);
  EXPECT_NE(reference_trace.find("degraded_fault"), std::string::npos);
  EXPECT_NE(reference_trace.find("server.plan_cache.lookup"),
            std::string::npos);
  // ("incident" may share the line with "slowest": the degraded request
  // replans, and the cold-planning charge also makes it slow.)
  EXPECT_NE(reference_text.find("[incident"), std::string::npos);
  EXPECT_NE(reference_trace.find("\"ph\":\"M\""), std::string::npos);
}

}  // namespace
}  // namespace robustqo
