// QueryService end to end on a small table: PREPARE/EXECUTE through the
// plan cache, per-session thresholds, session governor budgets, typed
// admission rejections under overload, statistics-epoch invalidation and
// the server.* metrics surface.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"

namespace robustqo {
namespace server {
namespace {

constexpr uint64_t kRows = 2000;

void LoadReadings(storage::Catalog* catalog) {
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < kRows; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  ASSERT_TRUE(catalog->AddTable(std::move(table)).ok());
}

std::unique_ptr<core::Database> MakeDatabase() {
  auto db = std::make_unique<core::Database>();
  LoadReadings(db->catalog());
  db->UpdateStatistics();
  return db;
}

const char kCountSql[] = "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50";

TEST(QueryServiceTest, PreparedExecuteHitsCacheAfterFirstRun) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();
  ASSERT_TRUE(service.Prepare(session, "q", kCountSql).ok());

  QueryResponse first = service.ExecutePrepared(session, "q");
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_NE(first.fingerprint, 0u);
  ASSERT_TRUE(first.result.has_value());
  EXPECT_EQ(first.result->rows.num_rows(), 1u);

  QueryResponse second = service.ExecutePrepared(session, "q");
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  // Same plan, same answer.
  EXPECT_EQ(second.result->rows.ValueAt(0, 0).ToString(),
            first.result->rows.ValueAt(0, 0).ToString());
  EXPECT_EQ(service.plan_cache()->stats().hits, 1u);
  EXPECT_EQ(service.queries_completed(), 2u);
}

TEST(QueryServiceTest, OneShotSqlAndSpecRequestsShareTheCache) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();

  QueryResponse sql = service.ExecuteSql(session, kCountSql);
  ASSERT_TRUE(sql.status.ok()) << sql.status.ToString();
  EXPECT_FALSE(sql.cache_hit);

  // The same statement as a pre-parsed spec fingerprints identically, so
  // it hits the plan the SQL path cached.
  opt::QuerySpec spec;
  spec.tables.push_back(
      {"readings", expr::Lt(expr::Col("r_value"), expr::LitInt(50))});
  spec.aggregates.push_back(
      {exec::AggKind::kCount, "", "n"});
  QueryResponse by_spec = service.ExecuteSpec(session, spec);
  ASSERT_TRUE(by_spec.status.ok()) << by_spec.status.ToString();
  EXPECT_EQ(by_spec.fingerprint, sql.fingerprint);
  EXPECT_TRUE(by_spec.cache_hit);
}

TEST(QueryServiceTest, SessionsAtDifferentThresholdsNeverShareAPlan) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  SessionOptions low;
  low.confidence_threshold = 0.5;
  SessionOptions high;
  high.confidence_threshold = 0.95;
  const SessionId low_id = service.OpenSession(low);
  const SessionId high_id = service.OpenSession(high);
  ASSERT_TRUE(service.Prepare(low_id, "q", kCountSql).ok());
  ASSERT_TRUE(service.Prepare(high_id, "q", kCountSql).ok());

  QueryResponse a = service.ExecutePrepared(low_id, "q");
  QueryResponse b = service.ExecutePrepared(high_id, "q");
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.fingerprint, b.fingerprint) << "same statement";
  EXPECT_FALSE(b.cache_hit) << "different T% must be a different cache key";
  EXPECT_EQ(service.plan_cache()->size(), 2u);

  // Each session hits its own entry from now on.
  EXPECT_TRUE(service.ExecutePrepared(low_id, "q").cache_hit);
  EXPECT_TRUE(service.ExecutePrepared(high_id, "q").cache_hit);
}

TEST(QueryServiceTest, UpdateStatisticsInvalidatesCachedPlansByEpoch) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();
  ASSERT_TRUE(service.Prepare(session, "q", kCountSql).ok());

  ASSERT_FALSE(service.ExecutePrepared(session, "q").cache_hit);
  ASSERT_TRUE(service.ExecutePrepared(session, "q").cache_hit);

  const uint64_t epoch_before = db->statistics()->epoch();
  service.UpdateStatistics();
  EXPECT_GT(db->statistics()->epoch(), epoch_before);

  // The cached plan predates the new statistics: one lazy invalidation,
  // then the statement re-caches under the new epoch.
  QueryResponse after = service.ExecutePrepared(session, "q");
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(service.plan_cache()->stats().invalidated_epoch, 1u);
  EXPECT_TRUE(service.ExecutePrepared(session, "q").cache_hit);
}

TEST(QueryServiceTest, OverloadedBatchRejectsTypedAndCompletesTheRest) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  ServerConfig config;
  config.admission.max_concurrent = 1;
  config.admission.max_queue_depth = 2;
  QueryService service(db.get(), config);
  const SessionId session = service.OpenSession();
  ASSERT_TRUE(service.Prepare(session, "q", kCountSql).ok());

  std::vector<QueryRequest> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(QueryRequest::Prepared(session, "q"));
  }
  std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), 5u);

  // Queue depth 2: the first two enter; the last three shed typed.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << i;
    EXPECT_NE(responses[i].ticket, 0u);
  }
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(responses[i].status.code(), StatusCode::kResourceExhausted) << i;
    EXPECT_EQ(responses[i].ticket, 0u);
  }
  // With one slot, the second request waited at least one wave — the
  // backpressure the traffic harness charges latency for.
  EXPECT_GE(responses[1].waves_waited, 1u);

  const SessionInfo info = service.sessions()->Get(session)->Info();
  EXPECT_EQ(info.submitted, 5u);
  EXPECT_EQ(info.completed, 2u);
  EXPECT_EQ(info.rejected, 3u);
}

TEST(QueryServiceTest, SessionGovernorLimitsTripTyped) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  SessionOptions tight;
  tight.governor_limits.row_limit = 10;  // the scan alone charges 2000
  const SessionId session = service.OpenSession(tight);

  QueryResponse response = service.ExecuteSql(session, kCountSql);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.queries_failed(), 1u);

  // An untight session on the same service is unaffected.
  const SessionId ok_session = service.OpenSession();
  EXPECT_TRUE(service.ExecuteSql(ok_session, kCountSql).status.ok());
}

TEST(QueryServiceTest, UnknownSessionAndStatementFailTyped) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  EXPECT_EQ(service.ExecuteSql(/*session=*/77, kCountSql).status.code(),
            StatusCode::kNotFound);

  const SessionId session = service.OpenSession();
  EXPECT_EQ(service.ExecutePrepared(session, "ghost").status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Prepare(77, "q", kCountSql).code(), StatusCode::kNotFound);

  ASSERT_TRUE(service.CloseSession(session).ok());
  EXPECT_EQ(service.ExecuteSql(session, kCountSql).status.code(),
            StatusCode::kNotFound);
}

TEST(QueryServiceTest, PublishMetricsExportsTheServerFamily) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();
  ASSERT_TRUE(service.Prepare(session, "q", kCountSql).ok());
  ASSERT_TRUE(service.ExecutePrepared(session, "q").status.ok());
  ASSERT_TRUE(service.ExecutePrepared(session, "q").status.ok());

  obs::MetricsRegistry metrics;
  service.PublishMetrics(&metrics);
  service.PublishMetrics(&metrics);  // idempotent
  EXPECT_DOUBLE_EQ(metrics.GetCounter("server.queries.completed")->value(),
                   2.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("server.sessions.open")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetCounter("server.admission.admitted")->value(),
                   2.0);
  EXPECT_DOUBLE_EQ(metrics.GetCounter("perf.cache.plan.hits")->value(), 1.0);
  // The SLO family is always published: the monitor records every request.
  EXPECT_DOUBLE_EQ(metrics.GetCounter("server.slo.observed")->value(), 2.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("stats.epoch")->value(),
      static_cast<double>(db->statistics()->epoch()));
}

// Regression: a request's fault_fires must accumulate across phases — a
// degraded plan-cache lookup (PLAN) plus injector fires during execution
// (EXECUTE) for a read, and every failed commit attempt before the retry
// that succeeds (REDUCE) for a write — not overwrite each other. Each
// incident exemplar's counter must also agree with the "fault"/"fired"
// events actually recorded on the request's tracer.
TEST(QueryServiceTest, FaultFiresAccumulateAcrossPlanExecuteAndReduce) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  db->fault_injector()->Arm(fault::sites::kPlanCacheLookup,
                            fault::FaultSpec::Always());
  fault::FaultSpec stall = fault::FaultSpec::Always();
  stall.stall_seconds = 0.001;
  db->fault_injector()->Arm(fault::sites::kClockStall, stall);
  db->fault_injector()->Arm(fault::sites::kWriteCommit,
                            fault::FaultSpec::FirstN(2));

  ServerConfig config;
  config.trace_requests = true;
  QueryService service(db.get(), config);
  const SessionId session = service.OpenSession();
  const std::vector<QueryResponse> responses = service.ExecuteBatch(
      {QueryRequest::Sql(session, kCountSql),
       QueryRequest::Sql(session, "INSERT INTO readings VALUES (9001, 7)")});
  ASSERT_EQ(responses.size(), 2u);
  for (const QueryResponse& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
  ASSERT_TRUE(responses[1].dml.has_value());
  EXPECT_EQ(responses[1].dml->retry.attempts, 3);

  const obs::RequestTrace* read = nullptr;
  const obs::RequestTrace* write = nullptr;
  for (const obs::FingerprintLedger::Exemplar& exemplar :
       service.ledger()->Exemplars()) {
    if (!exemplar.incident) continue;
    const obs::RequestTrace* trace = exemplar.trace;
    if (trace->request_id == responses[0].request_id) read = trace;
    if (trace->request_id == responses[1].request_id) write = trace;
  }
  ASSERT_NE(read, nullptr);
  ASSERT_NE(write, nullptr);
  const auto fired = [](const obs::RequestTrace& trace, const char* site) {
    uint64_t total = 0;
    uint64_t at_site = 0;
    for (const obs::TraceEvent& event : trace.events) {
      if (event.category != "fault" || event.name != "fired") continue;
      ++total;
      for (const auto& [key, value] : event.attrs) {
        if (key == "site" && value == site) ++at_site;
      }
    }
    return std::make_pair(total, at_site);
  };
  // One PLAN fire + at least one EXECUTE fire, both kept.
  const auto [read_events, plan_fires] =
      fired(*read, fault::sites::kPlanCacheLookup);
  EXPECT_GE(read->fault_fires, 2u);
  EXPECT_EQ(read->fault_fires, read_events);
  EXPECT_EQ(plan_fires, 1u);
  EXPECT_EQ(read->cache_outcome, "degraded_fault");
  // Both failed commit attempts of the REDUCE phase, kept.
  const auto [write_events, commit_fires] =
      fired(*write, fault::sites::kWriteCommit);
  EXPECT_EQ(commit_fires, 2u);
  EXPECT_GE(write->fault_fires, 2u);
  EXPECT_EQ(write->fault_fires, write_events);
}

}  // namespace
}  // namespace server
}  // namespace robustqo
