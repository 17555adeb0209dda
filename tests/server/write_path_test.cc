// The write path through the query service: DML via one-shot SQL and
// prepared statements, snapshot isolation within a batch (reads admitted
// alongside a write see the pre-commit state; the next wave sees it),
// sequential commit order, the DML response surface, and the ledger's
// charges for writes.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "fault/fault_injector.h"
#include "obs/fingerprint_ledger.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"

namespace robustqo {
namespace server {
namespace {

constexpr uint64_t kRows = 1000;

std::unique_ptr<core::Database> MakeDatabase() {
  auto db = std::make_unique<core::Database>();
  auto table = std::make_unique<storage::Table>(
      "readings", storage::Schema({{"r_id", storage::DataType::kInt64},
                                   {"r_value", storage::DataType::kInt64}}));
  Rng rng(2026);
  for (uint64_t i = 0; i < kRows; ++i) {
    table->AppendRow({storage::Value::Int64(static_cast<int64_t>(i)),
                      storage::Value::Int64(
                          static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  EXPECT_TRUE(db->catalog()->AddTable(std::move(table)).ok());
  db->UpdateStatistics();
  return db;
}

const char kCountAll[] = "SELECT COUNT(*) AS n FROM readings";

int64_t CountOf(const QueryResponse& response) {
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.result.has_value());
  return response.result->rows.ValueAt(0, 0).AsInt64();
}

TEST(WritePathTest, OneShotDmlCommitsAndFillsDmlOutcome) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();

  QueryResponse response = service.ExecuteSql(
      session, "INSERT INTO readings VALUES (9001, 5)");
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_TRUE(response.dml.has_value());
  EXPECT_FALSE(response.result.has_value());
  EXPECT_EQ(response.dml->rows_inserted, 1u);
  EXPECT_EQ(response.dml->epoch, 1u);
  EXPECT_EQ(db->catalog()->data_epoch(), 1u);
  EXPECT_FALSE(response.cache_hit);

  // The committed row is visible to the next request.
  EXPECT_EQ(CountOf(service.ExecuteSql(session, kCountAll)),
            static_cast<int64_t>(kRows + 1));
}

TEST(WritePathTest, PreparedDmlExecutesRepeatedly) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();
  ASSERT_TRUE(service
                  .Prepare(session, "bump",
                           "UPDATE readings SET r_value = r_value + 1 "
                           "WHERE r_id < 10")
                  .ok());

  QueryResponse first = service.ExecutePrepared(session, "bump");
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(first.dml.has_value());
  EXPECT_EQ(first.dml->rows_updated, 10u);
  EXPECT_EQ(first.dml->epoch, 1u);

  QueryResponse second = service.ExecutePrepared(session, "bump");
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.dml->epoch, 2u);
  // DML never comes from the plan cache.
  EXPECT_FALSE(second.cache_hit);
}

TEST(WritePathTest, ReadsInTheSameBatchSeePreCommitState) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();

  // One wave: read, write, read. All three are admitted into the same
  // wave, so both reads execute at the snapshot captured at wave start —
  // neither sees the insert, regardless of position in the batch.
  std::vector<QueryRequest> batch;
  batch.push_back(QueryRequest::Sql(session, kCountAll));
  batch.push_back(QueryRequest::Sql(
      session, "INSERT INTO readings VALUES (9001, 5), (9002, 6)"));
  batch.push_back(QueryRequest::Sql(session, kCountAll));
  std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), 3u);

  EXPECT_EQ(CountOf(responses[0]), static_cast<int64_t>(kRows));
  ASSERT_TRUE(responses[1].dml.has_value());
  EXPECT_EQ(responses[1].dml->rows_inserted, 2u);
  EXPECT_EQ(CountOf(responses[2]), static_cast<int64_t>(kRows));

  // The next wave reads the committed state.
  EXPECT_EQ(CountOf(service.ExecuteSql(session, kCountAll)),
            static_cast<int64_t>(kRows + 2));
}

TEST(WritePathTest, WritesInOneBatchSerializeInAdmissionOrder) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();

  std::vector<QueryRequest> batch;
  batch.push_back(
      QueryRequest::Sql(session, "INSERT INTO readings VALUES (9001, 1)"));
  batch.push_back(
      QueryRequest::Sql(session, "DELETE FROM readings WHERE r_id = 9001"));
  batch.push_back(
      QueryRequest::Sql(session, "INSERT INTO readings VALUES (9002, 2)"));
  std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_TRUE(r.dml.has_value());
  }
  // Epochs are assigned in admission (= request) order.
  EXPECT_EQ(responses[0].dml->epoch, 1u);
  EXPECT_EQ(responses[1].dml->epoch, 2u);
  EXPECT_EQ(responses[2].dml->epoch, 3u);
  // The second write targeted the first write's row: it must have seen it.
  EXPECT_EQ(responses[1].dml->rows_deleted, 1u);

  EXPECT_EQ(CountOf(service.ExecuteSql(session, kCountAll)),
            static_cast<int64_t>(kRows + 1));
}

TEST(WritePathTest, DmlParseErrorIsTypedAndCommitsNothing) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();

  QueryResponse response = service.ExecuteSql(
      session, "UPDATE readings SET no_such_column = 1");
  EXPECT_FALSE(response.status.ok());
  EXPECT_FALSE(response.dml.has_value());
  EXPECT_EQ(db->catalog()->data_epoch(), 0u);
}

TEST(WritePathTest, SessionTalliesCountDmlAsQueries) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  QueryService service(db.get());
  const SessionId session = service.OpenSession();

  ASSERT_TRUE(service
                  .ExecuteSql(session, "DELETE FROM readings WHERE r_id = 0")
                  .status.ok());
  EXPECT_EQ(service.queries_completed(), 1u);
}

// Writes consult neither the plan cache nor the optimizer, so the ledger
// charges them no planning time: a committed and a faulted write record
// their execution time alone (0 — writes report no cost meter), while a
// cold read still pays the planning charge on top of its execution.
TEST(WritePathTest, WritesPayNoPlanningCharge) {
  std::unique_ptr<core::Database> db = MakeDatabase();
  ServerConfig config;
  config.trace_requests = true;
  QueryService service(db.get(), config);
  const SessionId session = service.OpenSession();

  const QueryResponse committed =
      service.ExecuteSql(session, "INSERT INTO readings VALUES (5001, 7)");
  ASSERT_TRUE(committed.status.ok()) << committed.status.ToString();
  db->fault_injector()->Arm(fault::sites::kWriteCommit,
                            fault::FaultSpec::Always());
  const QueryResponse faulted =
      service.ExecuteSql(session, "INSERT INTO readings VALUES (5002, 8)");
  db->fault_injector()->DisarmAll();
  ASSERT_FALSE(faulted.status.ok());
  const QueryResponse read = service.ExecuteSql(session, kCountAll);
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  ASSERT_FALSE(read.cache_hit);

  // Each request is its row's exemplar: the committed write and the read
  // as their rows' slowest, the faulted write as its row's incident.
  std::map<uint64_t, const obs::RequestTrace*> traces;
  for (const obs::FingerprintLedger::Exemplar& exemplar :
       service.ledger()->Exemplars()) {
    traces[exemplar.trace->request_id] = exemplar.trace;
  }
  ASSERT_EQ(traces.count(committed.request_id), 1u);
  ASSERT_EQ(traces.count(faulted.request_id), 1u);
  ASSERT_EQ(traces.count(read.request_id), 1u);
  const double plan_charge = obs::FingerprintLedger::kPlanChargeSeconds;
  EXPECT_EQ(traces[committed.request_id]->service_seconds, 0.0);
  EXPECT_EQ(traces[faulted.request_id]->service_seconds, 0.0);
  EXPECT_EQ(traces[read.request_id]->service_seconds,
            read.result->simulated_seconds + plan_charge);

  // The SLO sketches agree; the faulted write observes no service time.
  const obs::SloScope* write_scope =
      service.ledger()->FingerprintScope(committed.fingerprint);
  ASSERT_NE(write_scope, nullptr);
  ASSERT_EQ(write_scope->service.count(), 1u);
  EXPECT_EQ(write_scope->service.Quantile(0.5), 0.0);
  const obs::SloScope* read_scope =
      service.ledger()->FingerprintScope(read.fingerprint);
  ASSERT_NE(read_scope, nullptr);
  EXPECT_GT(read_scope->service.Quantile(0.5), 0.99 * plan_charge);
  EXPECT_EQ(service.ledger()->global().service.count(), 2u);
}

}  // namespace
}  // namespace server
}  // namespace robustqo
