// Golden pin of every request outcome the query service produces, over one
// seeded run with request tracing on: submit-time failures (unknown
// session, parse error, unknown prepared statement), a planning failure,
// typed admission rejections, a governor trip, armed plan-cache-lookup,
// statistics-read and operator faults, and INSERT, UPDATE and DELETE
// including a faulted commit that rolls back. Pins, per
// request, the status, cache hit and row or DML counts, then the ledger's
// exemplars, the service's and the database's metrics as OpenMetrics
// and the ledger's plan-column report. Byte-identical at any RQO_THREADS
// setting. Regenerate with ROBUSTQO_UPDATE_GOLDENS=1.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "fault/fault_injector.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "optimizer/query.h"
#include "server/query_service.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace robustqo {
namespace {

using server::QueryRequest;
using server::QueryResponse;
using server::SessionId;

constexpr char kCountSql[] =
    "SELECT COUNT(*) AS n FROM readings WHERE r_value < 50";
constexpr char kRangeSql[] =
    "SELECT r_id, r_value FROM readings WHERE r_value >= 500 AND "
    "r_value < 520";

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

// One line per response: everything a client sees of its request.
std::string RenderResponse(const QueryResponse& r) {
  std::string out = StrPrintf(
      "#%llu session=%llu ticket=%llu fp=%016llx cache_hit=%d waves=%llu "
      "status=%s",
      static_cast<unsigned long long>(r.request_id),
      static_cast<unsigned long long>(r.session),
      static_cast<unsigned long long>(r.ticket),
      static_cast<unsigned long long>(r.fingerprint), r.cache_hit ? 1 : 0,
      static_cast<unsigned long long>(r.waves_waited),
      r.status.ToString().c_str());
  if (r.result.has_value()) {
    out += StrPrintf(" rows=%llu spj_rows=%llu sim=%.9g est=%.9g plan=%s",
                     static_cast<unsigned long long>(r.result->rows.num_rows()),
                     static_cast<unsigned long long>(r.result->spj_rows),
                     r.result->simulated_seconds, r.result->estimated_cost,
                     r.result->plan_label.c_str());
  }
  if (r.dml.has_value()) {
    out += StrPrintf(
        " inserted=%llu deleted=%llu epoch=%llu attempts=%d",
        static_cast<unsigned long long>(r.dml->rows_inserted),
        static_cast<unsigned long long>(r.dml->rows_deleted),
        static_cast<unsigned long long>(r.dml->epoch), r.dml->retry.attempts);
  }
  return out + "\n";
}

class BatchRenderer {
 public:
  explicit BatchRenderer(server::QueryService* service) : service_(service) {}

  void Batch(const std::string& name, const std::vector<QueryRequest>& batch) {
    rendered_ += "=== batch " + name + "\n";
    for (const QueryResponse& r : service_->ExecuteBatch(batch)) {
      rendered_ += RenderResponse(r);
    }
  }
  // One batch with `site` armed on the database injector, disarmed after.
  void Faulted(const std::string& name, const char* site,
               fault::FaultSpec spec, const std::vector<QueryRequest>& batch) {
    service_->database()->fault_injector()->Arm(site, spec);
    Batch(name, batch);
    service_->database()->fault_injector()->DisarmAll();
  }
  const std::string& rendered() const { return rendered_; }

 private:
  server::QueryService* service_;
  std::string rendered_;
};

TEST(ServiceRequestsGoldenTest, EveryRequestOutcomeMatchesGolden) {
  std::unique_ptr<core::Database> db = MakeReadingsDatabase();
  obs::MetricsRegistry db_metrics;
  db->SetMetrics(&db_metrics);
  server::ServerConfig config;
  config.admission.max_concurrent = 2;
  config.admission.max_queue_depth = 4;
  config.trace_requests = true;
  server::QueryService service(db.get(), config);
  obs::MetricsRegistry service_metrics;
  service.set_metrics(&service_metrics);

  server::SessionOptions main_options;
  main_options.name = "main";
  const SessionId main = service.OpenSession(main_options);
  server::SessionOptions strict_options;
  strict_options.name = "strict";
  strict_options.confidence_threshold = 0.95;
  const SessionId strict = service.OpenSession(strict_options);
  server::SessionOptions tight_options;
  tight_options.name = "tight";
  tight_options.governor_limits.row_limit = 10;  // the scan charges 2000
  const SessionId tight = service.OpenSession(tight_options);
  ASSERT_TRUE(service.Prepare(main, "count", kCountSql).ok());
  ASSERT_TRUE(service.Prepare(main, "range", kRangeSql).ok());
  ASSERT_TRUE(service
                  .Prepare(main, "bump",
                           "UPDATE readings SET r_value = r_value + 1 WHERE "
                           "r_id < 20")
                  .ok());
  ASSERT_TRUE(service.Prepare(strict, "count", kCountSql).ok());

  BatchRenderer run(&service);
  run.Batch("submit_failures",
            {QueryRequest::Sql(999, kCountSql),
             QueryRequest::Sql(main, "SELEKT 1 FROM readings"),
             QueryRequest::Prepared(main, "ghost"),
             QueryRequest::Spec(main, opt::QuerySpec{}),
             QueryRequest::Prepared(main, "count")});
  // Two slots and a queue of four: three of seven shed typed.
  run.Batch("overload", std::vector<QueryRequest>(
                            7, QueryRequest::Prepared(main, "count")));
  run.Batch("governor", {QueryRequest::Sql(tight, kCountSql),
                         QueryRequest::Prepared(main, "range")});
  run.Faulted("plan_cache_lookup_fault", fault::sites::kPlanCacheLookup,
              fault::FaultSpec::Always(),
              {QueryRequest::Prepared(main, "count")});
  run.Faulted("statistics_read_fault", fault::sites::kSynopsisRead,
              fault::FaultSpec::Always(),
              {QueryRequest::Sql(
                  main, "SELECT COUNT(*) AS n FROM readings WHERE r_value < 70")});
  fault::FaultSpec alloc = fault::FaultSpec::Always();
  alloc.code = StatusCode::kResourceExhausted;
  run.Faulted("operator_fault", fault::sites::kOperatorAlloc, alloc,
              {QueryRequest::Prepared(main, "range")});
  run.Batch("writes",
            {QueryRequest::Sql(main,
                               "INSERT INTO readings VALUES (5001, 7), "
                               "(5002, 8)"),
             QueryRequest::Prepared(main, "count"),
             QueryRequest::Prepared(main, "bump"),
             QueryRequest::Sql(main, "DELETE FROM readings WHERE r_id >= 1990")});
  run.Faulted("commit_fault", fault::sites::kWriteCommit,
              fault::FaultSpec::Always(),
              {QueryRequest::Sql(main, "INSERT INTO readings VALUES (6001, 9)"),
               QueryRequest::Prepared(main, "count")});
  run.Batch("after_writes", {QueryRequest::Prepared(main, "count"),
                             QueryRequest::Prepared(main, "range"),
                             QueryRequest::Prepared(strict, "count")});

  std::string rendered = run.rendered();
  rendered += "=== exemplars\n" + service.ledger()->ExemplarText() +
              service.ledger()->ExemplarChromeTrace() + "\n";
  service.PublishMetrics(&service_metrics);
  rendered += "=== service metrics\n" + obs::ToOpenMetrics(service_metrics);
  rendered += "=== database metrics\n" + obs::ToOpenMetrics(db_metrics);
  rendered += "=== provenance\n" + service.ledger()->PlanReportText();

  const std::string path = std::string(ROBUSTQO_SOURCE_DIR) +
                           "/tests/golden/service_requests.txt";
  if (std::getenv("ROBUSTQO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with ROBUSTQO_UPDATE_GOLDENS=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str()) << "golden mismatch: service_requests";
}

}  // namespace
}  // namespace robustqo
