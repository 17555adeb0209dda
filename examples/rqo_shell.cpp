// rqo_shell: a minimal interactive SQL shell over a TPC-H-lite database.
// Reads one statement per line from stdin. Dot-commands:
//   .estimator robust|histogram     switch the estimation module
//   .threshold <percent>            set the system confidence threshold
//   .explain <sql>                  threshold-preference report for a query
//   .dot <sql>                      Graphviz digraph of the chosen plan
//   .tables                         list tables
//   .faults                         list armed fault sites + known sites
//   .metrics [om]                   session + last-query metrics as JSON
//                                   (or OpenMetrics text with "om")
//   .trace export <file>            last EXPLAIN ANALYZE trace as Chrome
//                                   trace_event JSON (chrome://tracing)
//   .quality                        estimation-quality reports: EXPLAIN
//                                   ANALYZE runs (keyed by predicate
//                                   fingerprint) and served statements
//                                   (keyed by statement fingerprint; the
//                                   drift monitor that triggers a
//                                   statistics rebuild)
//   .sessions                       query-service session table
//   .plancache                      plan-cache contents + hit/miss stats
//   .blackbox                       the ledger's exemplars: per
//                                   fingerprint, the span trees of the
//                                   slowest request and the latest
//                                   incident, one line each
//   .blackbox trace <file>          write the exemplars as a Chrome trace
//                                   (Perfetto lanes grouped by session)
//   .slo                            queue-wait/service/regret quantiles
//                                   and the worst sessions/fingerprints
//   .epoch                          data + statistics epochs and the
//                                   per-table online-maintenance state
//                                   (modifications, pending-rebuild
//                                   flags)
//   .fp <fphex>                     one statement's ledger row: SLO,
//                                   quality, table and plan columns (the
//                                   winner line) and its exemplars; the
//                                   ledger keeps the 128 most recently
//                                   recorded rows
//   .whyplan [<fphex>|last]         the ledger's plan column: why the plan
//                                   for a fingerprint won, its cost curve
//                                   across the selectivity posterior, and
//                                   what changed on re-plans (no argument:
//                                   every retained record)
//   .traffic [seconds]              mixed read/write traffic demo through
//                                   the query service (write share set by
//                                   SET WRITE_FRACTION); prints the
//                                   deterministic traffic summary
//   .quit                           exit
// Statements:
//   INSERT INTO <t> VALUES (...)    DML commits atomically, bumps the data
//   UPDATE <t> SET ... [WHERE ...]  epoch, and counts toward the table's
//   DELETE FROM <t> [WHERE ...]     statistics rebuild (see .epoch)
//   PREPARE <name> AS <sql>         register a prepared statement in the
//                                   shell's server session
//   EXECUTE <name>                  run it through the query service's
//                                   admission control + plan cache (the
//                                   result line reports HIT/MISS
//                                   provenance)
//   EXPLAIN ANALYZE <sql>           plan + execute; per-operator estimated
//                                   vs. actual rows, q-error, costs, and the
//                                   estimator's per-predicate evidence
//   EXPLAIN ANALYZE JSON <sql>      same report as deterministic JSON
//   EXPLAIN ANALYZE DOT <sql>       same report as a Graphviz digraph
//   SET FAULT SEED <n>              reseed the fault injector
//   SET FAULT <site> ALWAYS         arm a fault site (see .faults)
//   SET FAULT <site> P=<0..1>       ... fire with seeded probability
//   SET FAULT <site> FIRST=<n>      ... fire on the first n probes
//   SET FAULT <site> NTH=<n>        ... fire on exactly the n-th probe
//   SET FAULT <site> OFF            disarm one site (OFF alone: all)
//   SET MEMORY_LIMIT <bytes>        per-query governor budgets; 0 = off
//   SET ROW_LIMIT <rows>
//   SET TIME_LIMIT <seconds>
//   SET THREADS <n>                 sampling-engine worker threads (0 = #cores);
//                                   results are identical at any setting
//   SET WRITE_FRACTION <0..1>       write share of the .traffic demo
//
//   $ echo "SELECT COUNT(*) FROM lineitem" | ./build/examples/rqo_shell

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/explain_analyze.h"
#include "core/report.h"
#include "exec/plan_dot.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/fingerprint_ledger.h"
#include "perf/task_pool.h"
#include "server/query_service.h"
#include "tpch/tpch_gen.h"
#include "util/string_util.h"
#include "workload/quality_report.h"
#include "workload/traffic_harness.h"

using namespace robustqo;

namespace {

void PrintResult(const core::ExecutionResult& result) {
  std::printf("-- plan: %s   (%.3f simulated s, predicted %.3f)\n",
              result.plan_label.c_str(), result.simulated_seconds,
              result.estimated_cost);
  const storage::Table& rows = result.rows;
  const uint64_t limit = std::min<uint64_t>(rows.num_rows(), 20);
  for (size_t c = 0; c < rows.schema().num_columns(); ++c) {
    std::printf("%s%s", c > 0 ? " | " : "",
                rows.schema().column(c).name.c_str());
  }
  std::printf("\n");
  for (storage::Rid r = 0; r < limit; ++r) {
    for (size_t c = 0; c < rows.schema().num_columns(); ++c) {
      std::printf("%s%s", c > 0 ? " | " : "",
                  rows.ValueAt(r, c).ToString().c_str());
    }
    std::printf("\n");
  }
  if (rows.num_rows() > limit) {
    std::printf("... (%llu rows total)\n",
                static_cast<unsigned long long>(rows.num_rows()));
  }
}

// Handles "SET <verb> ..." statements, naming the known verbs when the
// verb is unknown; returns false when `line` is not a SET statement.
bool HandleSet(core::Database* db, double* write_fraction,
               const std::string& line) {
  std::vector<std::string> tokens = SplitString(line, ' ');
  tokens.erase(std::remove(tokens.begin(), tokens.end(), std::string()),
               tokens.end());
  if (tokens.size() < 2 || ToUpper(tokens[0]) != "SET") return false;
  const std::string verb = ToUpper(tokens[1]);

  if (verb == "FAULT") {
    if (tokens.size() == 3 && ToUpper(tokens[2]) == "OFF") {
      db->fault_injector()->DisarmAll();
      std::printf("all fault sites disarmed\n");
      return true;
    }
    if (tokens.size() != 4) {
      std::printf("usage: SET FAULT <site>|SEED ALWAYS|OFF|P=|FIRST=|NTH=\n");
      return true;
    }
    if (ToUpper(tokens[2]) == "SEED") {
      db->fault_injector()->Reseed(std::strtoull(tokens[3].c_str(), nullptr, 10));
      std::printf("fault seed: %llu\n",
                  static_cast<unsigned long long>(db->fault_injector()->seed()));
      return true;
    }
    const std::string& site = tokens[2];
    const std::string arg = ToUpper(tokens[3]);
    if (arg == "OFF") {
      db->fault_injector()->Disarm(site);
      std::printf("disarmed %s\n", site.c_str());
      return true;
    }
    fault::FaultSpec spec;
    if (arg == "ALWAYS") {
      spec = fault::FaultSpec::Always();
    } else if (StartsWith(arg, "P=")) {
      spec = fault::FaultSpec::Probability(std::atof(arg.substr(2).c_str()));
    } else if (StartsWith(arg, "FIRST=")) {
      spec = fault::FaultSpec::FirstN(
          std::strtoull(arg.substr(6).c_str(), nullptr, 10));
    } else if (StartsWith(arg, "NTH=")) {
      spec = fault::FaultSpec::OnNth(
          std::strtoull(arg.substr(4).c_str(), nullptr, 10));
    } else {
      std::printf("unknown fault mode: %s\n", tokens[3].c_str());
      return true;
    }
    // The alloc site models an out-of-memory, not a transient read.
    if (site == fault::sites::kOperatorAlloc) {
      spec.code = StatusCode::kResourceExhausted;
    }
    db->fault_injector()->Arm(site, spec);
    std::printf("armed %s %s\n", site.c_str(), spec.ToString().c_str());
    return true;
  }

  if (verb == "MEMORY_LIMIT" || verb == "ROW_LIMIT" || verb == "TIME_LIMIT") {
    if (tokens.size() != 3) {
      std::printf("usage: SET %s <n>   (0 = unlimited)\n", verb.c_str());
      return true;
    }
    fault::GovernorLimits limits = db->governor_limits();
    if (verb == "MEMORY_LIMIT") {
      limits.memory_limit_bytes =
          std::strtoull(tokens[2].c_str(), nullptr, 10);
    } else if (verb == "ROW_LIMIT") {
      limits.row_limit = std::strtoull(tokens[2].c_str(), nullptr, 10);
    } else {
      limits.time_limit_seconds = std::atof(tokens[2].c_str());
    }
    db->SetGovernorLimits(limits);
    std::printf("governor: memory=%llu bytes, rows=%llu, time=%.3f s\n",
                static_cast<unsigned long long>(limits.memory_limit_bytes),
                static_cast<unsigned long long>(limits.row_limit),
                limits.time_limit_seconds);
    return true;
  }

  if (verb == "THREADS") {
    if (tokens.size() != 3) {
      std::printf("usage: SET THREADS <n>   (0 = hardware concurrency)\n");
      return true;
    }
    perf::SetThreadCount(
        static_cast<unsigned>(std::strtoul(tokens[2].c_str(), nullptr, 10)));
    std::printf("threads: %u (results are bit-identical at any setting)\n",
                perf::ThreadCount());
    return true;
  }

  if (verb == "WRITE_FRACTION") {
    if (tokens.size() != 3) {
      std::printf("usage: SET WRITE_FRACTION <0..1>\n");
      return true;
    }
    const double fraction = std::atof(tokens[2].c_str());
    if (fraction < 0.0 || fraction > 1.0) {
      std::printf("usage: SET WRITE_FRACTION <0..1>\n");
      return true;
    }
    *write_fraction = fraction;
    std::printf("traffic write fraction: %.3f\n", fraction);
    return true;
  }
  std::printf(
      "unknown setting '%s' (known: FAULT, MEMORY_LIMIT, ROW_LIMIT, "
      "TIME_LIMIT, THREADS, WRITE_FRACTION)\n",
      tokens[1].c_str());
  return true;
}

// `.epoch`: the two epochs and the per-table online-maintenance state.
void PrintEpochs(core::Database* db) {
  std::printf("data epoch:       %llu  (committed DML batches)\n",
              static_cast<unsigned long long>(db->catalog()->data_epoch()));
  std::printf("statistics epoch: %llu  (rebuilds; keys the plan cache)\n",
              static_cast<unsigned long long>(db->statistics()->epoch()));
  std::printf("%-10s %14s %8s\n", "table", "modifications", "pending");
  for (const auto& entry : db->statistics()->MaintenanceState()) {
    std::printf("%-10s %14llu %8s\n", entry.table.c_str(),
                static_cast<unsigned long long>(entry.modifications),
                entry.pending_rebuild ? "yes" : "no");
  }
}

// `.traffic [seconds]`: a small mixed read/write closed-loop demo through
// the query service, with the write share set by SET WRITE_FRACTION.
void RunTrafficDemo(server::QueryService* service, double write_fraction,
                    double duration_seconds) {
  workload::TrafficConfig config;
  config.base_seed = 42;
  config.clients = 50;
  config.duration_seconds = duration_seconds;
  config.think_seconds = 2.0;
  config.write_fraction = write_fraction;
  config.statements = {
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 25",
      "SELECT COUNT(*) FROM orders WHERE o_totalprice < 50000",
      "SELECT COUNT(*) FROM customer WHERE c_acctbal < 5000",
  };
  // The demo writes keep referential integrity intact: new lineitems
  // reference existing orders/parts/suppliers and the DELETE only removes
  // rows this demo inserted (l_linenumber 99 never occurs in generated
  // data, where orders have at most 7 lines).
  config.write_statements = {
      "UPDATE orders SET o_totalprice = o_totalprice * 1.01 "
      "WHERE o_orderkey < 40",
      "INSERT INTO lineitem VALUES (1, 1, 1, 99, 10.0, 1000.0, 0.05, "
      "DATE '1995-06-17', DATE '1995-07-01', DATE '1995-07-15')",
      "DELETE FROM lineitem WHERE l_linenumber = 99",
  };
  const workload::TrafficReport report = workload::RunTraffic(service, config);
  std::printf("%s", report.Summary().c_str());
}

}  // namespace

int main() {
  core::Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.01;
  Status loaded = tpch::LoadTpch(db.catalog(), config);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }
  db.UpdateStatistics();
  core::EstimatorKind kind = core::EstimatorKind::kRobustSample;

  // Session-scoped telemetry: every statement records into a per-query
  // registry which merges into the session registry afterwards, so
  // `.metrics` can show both scopes. EXPLAIN ANALYZE runs additionally
  // feed a standalone ledger's quality columns (keyed by predicate
  // fingerprint) and refresh the exportable trace.
  obs::MetricsRegistry session_metrics;
  obs::MetricsRegistry query_metrics;
  obs::FingerprintLedger quality;
  std::vector<obs::TraceEvent> last_trace;
  db.SetMetrics(&query_metrics);

  // The shell is one interactive client of the concurrent query service:
  // PREPARE/EXECUTE route through its admission controller and plan cache.
  // Request tracing is on so `.blackbox` and `.fp` have exemplar span
  // trees to show after EXECUTE traffic.
  // The service always files plan provenance, so `.whyplan` has history;
  // the database-level capture gives EXPLAIN ANALYZE its sensitivity
  // section too.
  server::ServerConfig server_config;
  server_config.trace_requests = true;
  server::QueryService service(&db, server_config);
  service.set_metrics(&query_metrics);
  db.SetProvenanceCapture(true);
  server::SessionOptions shell_options;
  shell_options.name = "shell";
  const server::SessionId shell_session = service.OpenSession(shell_options);
  double write_fraction = 0.2;  // write share of the .traffic demo

  std::printf("robustqo shell — TPC-H sf=%.2f loaded; robust estimator at "
              "T=%.0f%%. Type SQL or .quit\n",
              config.scale_factor, db.confidence_threshold() * 100.0);
  std::string line;
  while (std::printf("rqo> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".faults") {
      const std::string armed = db.fault_injector()->DescribeArmed();
      std::printf("armed (seed %llu):\n%s",
                  static_cast<unsigned long long>(db.fault_injector()->seed()),
                  armed.empty() ? "  (none)\n" : armed.c_str());
      std::printf("known sites:\n");
      for (const std::string& site : fault::KnownFaultSites()) {
        std::printf("  %s\n", site.c_str());
      }
      continue;
    }
    if (HandleSet(&db, &write_fraction, line)) continue;
    if (line == ".epoch") {
      PrintEpochs(&db);
      continue;
    }
    if (line == ".traffic" || StartsWith(line, ".traffic ")) {
      double seconds = 60.0;
      if (line.size() > strlen(".traffic ")) {
        seconds = std::atof(line.substr(strlen(".traffic ")).c_str());
        if (seconds <= 0.0) {
          std::printf("usage: .traffic [simulated seconds]\n");
          continue;
        }
      }
      RunTrafficDemo(&service, write_fraction, seconds);
      continue;
    }
    if (line == ".metrics" || line == ".metrics om") {
      quality.PublishQualityMetrics(&session_metrics);
      if (line == ".metrics") {
        std::printf("session:    %s\n", session_metrics.ToJson().c_str());
        std::printf("last query: %s\n", query_metrics.ToJson().c_str());
      } else {
        std::printf("# scope: session\n%s",
                    obs::ToOpenMetrics(session_metrics).c_str());
        std::printf("# scope: last query\n%s",
                    obs::ToOpenMetrics(query_metrics).c_str());
      }
      continue;
    }
    if (StartsWith(line, ".trace")) {
      if (!StartsWith(line, ".trace export ") ||
          line.size() <= strlen(".trace export ")) {
        std::printf("usage: .trace export <file>\n");
        continue;
      }
      if (last_trace.empty()) {
        std::printf("no trace recorded — run EXPLAIN ANALYZE first\n");
        continue;
      }
      const std::string path = line.substr(strlen(".trace export "));
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::printf("cannot open %s\n", path.c_str());
        continue;
      }
      const std::string json = obs::ToChromeTrace(last_trace);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %zu trace events to %s\n", last_trace.size(),
                  path.c_str());
      continue;
    }
    if (line == ".quality") {
      std::printf("-- EXPLAIN ANALYZE runs (keyed by predicate fingerprint)\n"
                  "%s-- served statements (keyed by statement fingerprint; "
                  "drift triggers a statistics rebuild)\n%s",
                  quality.QualityReportText().c_str(),
                  service.ledger()->QualityReportText().c_str());
      continue;
    }
    if (StartsWith(line, ".fp ")) {
      const uint64_t fp =
          std::strtoull(line.substr(strlen(".fp ")).c_str(), nullptr, 16);
      std::printf("%s", service.ledger()->RowText(fp).c_str());
      continue;
    }
    if (line == ".sessions") {
      std::printf("%s", service.sessions()->ReportText().c_str());
      continue;
    }
    if (line == ".plancache") {
      std::printf("%s", service.plan_cache()->ReportText().c_str());
      continue;
    }
    if (StartsWith(line, ".blackbox")) {
      const obs::FingerprintLedger* ledger = service.ledger();
      if (line == ".blackbox") {
        std::printf("%s", ledger->ExemplarText().c_str());
      } else if (StartsWith(line, ".blackbox trace ") &&
                 line.size() > strlen(".blackbox trace ")) {
        const std::string path = line.substr(strlen(".blackbox trace "));
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
          std::printf("cannot open %s\n", path.c_str());
          continue;
        }
        const std::string json = ledger->ExemplarChromeTrace();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %zu request lanes to %s\n",
                    ledger->Exemplars().size(), path.c_str());
      } else {
        std::printf("usage: .blackbox [trace <file>]\n");
      }
      continue;
    }
    if (line == ".whyplan" || StartsWith(line, ".whyplan ")) {
      const obs::FingerprintLedger* ledger = service.ledger();
      if (line == ".whyplan") {
        std::printf("%s", ledger->PlanReportText().c_str());
      } else {
        const std::string arg = line.substr(strlen(".whyplan "));
        if (arg == "last") {
          const obs::PlanProvenanceRecord* latest = ledger->LatestPlan();
          if (latest == nullptr) {
            std::printf("no plans recorded — run EXECUTE traffic first\n");
          } else {
            std::printf("%s",
                        ledger->PlanReportFor(latest->fingerprint).c_str());
          }
        } else {
          const uint64_t fp = std::strtoull(arg.c_str(), nullptr, 16);
          std::printf("%s", ledger->PlanReportFor(fp).c_str());
        }
      }
      continue;
    }
    if (line == ".slo") {
      std::printf("%s", service.ledger()->SloReportText().c_str());
      continue;
    }
    if (StartsWith(line, "PREPARE ") || StartsWith(line, "prepare ")) {
      const std::string rest = line.substr(8);
      size_t as_pos = rest.find(" AS ");
      if (as_pos == std::string::npos) as_pos = rest.find(" as ");
      if (as_pos == std::string::npos || as_pos == 0) {
        std::printf("usage: PREPARE <name> AS <sql>\n");
        continue;
      }
      const std::string name = rest.substr(0, as_pos);
      const std::string sql = rest.substr(as_pos + 4);
      Status prepared = service.Prepare(shell_session, name, sql);
      if (!prepared.ok()) {
        std::printf("error: %s\n", prepared.ToString().c_str());
        continue;
      }
      std::printf("prepared %s\n", name.c_str());
      continue;
    }
    if (StartsWith(line, "EXECUTE ") || StartsWith(line, "execute ")) {
      const std::string name = line.substr(8);
      query_metrics.Reset();
      server::QueryResponse response =
          service.ExecutePrepared(shell_session, name);
      session_metrics.MergeFrom(query_metrics);
      if (!response.status.ok()) {
        std::printf("error: %s\n", response.status.ToString().c_str());
        continue;
      }
      std::printf("-- plan cache: %s   (fingerprint %016llx)\n",
                  response.cache_hit ? "HIT" : "MISS",
                  static_cast<unsigned long long>(response.fingerprint));
      PrintResult(*response.result);
      continue;
    }
    if (line == ".tables") {
      for (const auto& name : db.catalog()->TableNames()) {
        std::printf("  %-10s %10llu rows\n", name.c_str(),
                    static_cast<unsigned long long>(
                        db.catalog()->GetTable(name)->num_rows()));
      }
      continue;
    }
    if (StartsWith(line, ".estimator")) {
      kind = Contains(line, "hist") ? core::EstimatorKind::kHistogram
                                    : core::EstimatorKind::kRobustSample;
      std::printf("estimator: %s\n",
                  kind == core::EstimatorKind::kHistogram ? "histogram"
                                                          : "robust");
      continue;
    }
    if (StartsWith(line, ".threshold")) {
      const double pct = std::atof(line.substr(10).c_str());
      if (pct > 0.0 && pct < 100.0) {
        db.SetConfidenceThreshold(pct / 100.0);
        std::printf("confidence threshold: %.0f%%\n", pct);
      } else {
        std::printf("usage: .threshold <1-99>\n");
      }
      continue;
    }
    if (StartsWith(line, ".explain ")) {
      auto query = db.ParseSql(line.substr(9));
      if (!query.ok()) {
        std::printf("error: %s\n", query.status().ToString().c_str());
        continue;
      }
      auto report = core::ThresholdPreferenceReport(&db, query.value());
      if (!report.ok()) {
        std::printf("error: %s\n", report.status().ToString().c_str());
        continue;
      }
      std::printf("%s", core::FormatThresholdReport(report.value()).c_str());
      continue;
    }
    if (StartsWith(line, "EXPLAIN ANALYZE ") ||
        StartsWith(line, "explain analyze ")) {
      std::string rest = line.substr(16);
      enum { kText, kJson, kDot } format = kText;
      if (StartsWith(rest, "JSON ") || StartsWith(rest, "json ")) {
        format = kJson;
        rest = rest.substr(5);
      } else if (StartsWith(rest, "DOT ") || StartsWith(rest, "dot ")) {
        format = kDot;
        rest = rest.substr(4);
      }
      auto query = db.ParseSql(rest);
      if (!query.ok()) {
        std::printf("error: %s\n", query.status().ToString().c_str());
        continue;
      }
      query_metrics.Reset();
      auto analyzed =
          core::ExplainAnalyze(&db, query.value(), kind, {}, &last_trace);
      session_metrics.MergeFrom(query_metrics);
      if (!analyzed.ok()) {
        std::printf("error: %s\n", analyzed.status().ToString().c_str());
        continue;
      }
      // The run's actuals feed the EXPLAIN ANALYZE quality ledger.
      workload::RecordAnalyzedPlan(analyzed.value(), &quality);
      switch (format) {
        case kText:
          std::printf("%s", analyzed.value().ToText().c_str());
          break;
        case kJson:
          std::printf("%s\n", analyzed.value().ToJson().c_str());
          break;
        case kDot:
          std::printf("%s", analyzed.value().ToDot().c_str());
          break;
      }
      continue;
    }
    if (StartsWith(line, ".dot ")) {
      auto query = db.ParseSql(line.substr(5));
      if (!query.ok()) {
        std::printf("error: %s\n", query.status().ToString().c_str());
        continue;
      }
      auto plan = db.Plan(query.value(), kind);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        continue;
      }
      std::printf("%s", exec::PlanToDot(*plan.value().root).c_str());
      continue;
    }
    query_metrics.Reset();
    auto result = db.ExecuteStatement(line, kind);
    session_metrics.MergeFrom(query_metrics);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (result.value().dml.has_value()) {
      const exec::DmlResult& dml = *result.value().dml;
      std::printf("-- %llu row(s) affected; data epoch %llu"
                  "%s\n",
                  static_cast<unsigned long long>(dml.rows_affected()),
                  static_cast<unsigned long long>(dml.epoch),
                  dml.retry.attempts > 1
                      ? StrPrintf(" (%llu commit attempts)",
                                  static_cast<unsigned long long>(
                                      dml.retry.attempts))
                            .c_str()
                      : "");
      continue;
    }
    PrintResult(*result.value().query);
  }
  return 0;
}
