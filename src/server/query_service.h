// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// QueryService: the concurrent serving layer tying the server subsystem
// together. Clients open sessions, PREPARE statements, and submit batches
// of requests; the service runs them through admission control, an
// epoch-keyed plan cache, and a deterministic parallel scheduler on
// perf::TaskPool.
//
// The scheduler is wave-based, the repo's standard recipe for parallelism
// without nondeterminism:
//
//   1. SUBMIT (sequential): requests enter the admission queue in request
//      order; typed rejections (queue full, load shedding) are decided
//      here.
//   2. PLAN (sequential): each admitted request resolves its plan — plan
//      cache lookup keyed by (statement fingerprint, effective T%,
//      estimator, statistics epoch), falling back to the optimizer on a
//      miss. A miss calls Database::Plan with the request's effective T%,
//      provenance capture and tracer in its OptimizerOptions; no
//      database-wide setting changes. Planning shares the Database's
//      single-threaded optimizer, so it stays on the coordinator;
//      per-request seeds are drawn here, in admission order, so they never
//      depend on execution timing.
//   3. EXECUTE (parallel): admitted read plans run concurrently through
//      core::RunPlan (the read path Database::ExecutePlan uses), one
//      TaskPool task per request, each against its own ExecContext,
//      QueryGovernor, MetricsRegistry shard and FaultInjector (re-armed
//      from the database injector's specs, reseeded from the request
//      seed), and the exec::Workspace of the worker running it, whose
//      buffers stay warm from one request to the next. Every read in the wave is pinned to the snapshot (data)
//      epoch captured at wave start, so concurrent writes never change
//      what a wave's reads see. Results land in pre-allocated slots.
//   4. REDUCE (sequential): DML requests apply here through
//      Database::ApplyDml (the write path Database::ExecuteDml uses), in
//      admission order, each under its own request context, staging and
//      committing atomically against the latest state (bumping the data
//      epoch on success — later waves see it, this wave's reads did not).
//      Then completions, session tallies, metric merges and one
//      fingerprint-ledger record per request (SLO and
//      estimation-quality columns, and the request's span tree as an
//      exemplar candidate while traced) are applied in admission order;
//      fingerprints the ledger flags as drifted have the tables they read
//      flagged for statistics rebuild, and flagged tables (drift or
//      committed-write volume) are rebuilt before the next wave, bumping
//      the statistics epoch so every stale cached plan is dropped at its
//      next lookup.
//
// Every client-visible artifact — responses, reports, merged metrics — is
// byte-identical at any RQO_THREADS setting: reads are pure against a
// pinned snapshot, and every mutation (writes, epoch bumps, rebuilds)
// happens in a sequential phase in admission order.

#ifndef ROBUSTQO_SERVER_QUERY_SERVICE_H_
#define ROBUSTQO_SERVER_QUERY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "obs/fingerprint_ledger.h"
#include "obs/metrics.h"
#include "server/admission.h"
#include "server/plan_cache.h"
#include "server/session.h"
#include "util/status.h"

namespace robustqo {
namespace server {

/// Service-wide configuration.
struct ServerConfig {
  /// Root of the deterministic seed tree: session request seeds and
  /// per-request fault-injector streams all derive from it.
  uint64_t seed = 42;
  AdmissionConfig admission;
  /// Drift detection: a drifted fingerprint's tables are rebuilt at the
  /// end of the wave, like tables past the committed-write threshold.
  obs::QualityConfig quality;
  /// Traces every admitted request and files its span tree as its ledger
  /// row's exemplars (slowest request, latest incident). Off by default:
  /// an untraced request builds no per-request tracer.
  bool trace_requests = false;
  /// Runner-up candidates kept per plan-provenance record. Every plan the
  /// optimizer resolves (a cache miss of any flavor) files a sensitivity
  /// record in the ledger's plan column, and a re-planned fingerprint
  /// files a plan-diff record with its trigger. Strictly read-only w.r.t.
  /// plan choice.
  static constexpr size_t provenance_top_k = 3;
};

/// One client request: EXECUTE of a prepared statement (when `prepared`
/// is non-empty), a pre-parsed query spec, or a one-shot SQL statement.
struct QueryRequest {
  SessionId session = 0;
  std::string prepared;
  std::string sql;
  /// Pre-parsed one-shot query (harnesses that build QuerySpecs directly).
  std::optional<opt::QuerySpec> spec;

  static QueryRequest Prepared(SessionId session, std::string name) {
    QueryRequest r;
    r.session = session;
    r.prepared = std::move(name);
    return r;
  }
  static QueryRequest Sql(SessionId session, std::string sql) {
    QueryRequest r;
    r.session = session;
    r.sql = std::move(sql);
    return r;
  }
  static QueryRequest Spec(SessionId session, opt::QuerySpec spec) {
    QueryRequest r;
    r.session = session;
    r.spec = std::move(spec);
    return r;
  }
};

/// Outcome of one request, in the batch's request order.
struct QueryResponse {
  SessionId session = 0;
  /// Admission ticket; 0 when the request never reached the queue
  /// (unknown session, parse error, unknown prepared statement).
  uint64_t ticket = 0;
  /// OK, or the typed rejection/planning/execution failure.
  Status status = Status::OK();
  /// Engaged only when status is OK and the request was a query.
  std::optional<core::ExecutionResult> result;
  /// Engaged only when status is OK and the request was INSERT/UPDATE/
  /// DELETE: rows affected, the published data epoch, commit retries.
  std::optional<exec::DmlResult> dml;
  /// Statement fingerprint (0 when the request failed before planning).
  uint64_t fingerprint = 0;
  /// Whether the plan came from the cache.
  bool cache_hit = false;
  /// Scheduling waves spent queued before admission (backpressure felt).
  uint64_t waves_waited = 0;
  /// Dense service-wide request ordinal (1-based), assigned at submit in
  /// request order — the id exemplar lanes are keyed by. Assigned even to
  /// requests that never reach the admission queue.
  uint64_t request_id = 0;
};

class QueryService {
 public:
  /// `db` is borrowed and must outlive the service. The service arms
  /// per-request fault injectors from `db->fault_injector()`'s specs and
  /// reads the statistics epoch from `db->statistics()`.
  QueryService(core::Database* db, ServerConfig config = {});

  core::Database* database() { return db_; }
  const ServerConfig& config() const { return config_; }

  // ---- Sessions ----
  SessionId OpenSession(SessionOptions options = {});
  Status CloseSession(SessionId id);
  SessionManager* sessions() { return &sessions_; }

  /// Parses and registers `sql` under `name` in the session, computing the
  /// statement fingerprint that keys the plan cache and the ledger.
  Status Prepare(SessionId session, const std::string& name,
                 const std::string& sql);

  // ---- Execution ----

  /// Runs a batch through the wave scheduler. Responses are positionally
  /// aligned with `requests` and byte-for-byte independent of RQO_THREADS.
  std::vector<QueryResponse> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  /// Single-request conveniences (a batch of one).
  QueryResponse ExecutePrepared(SessionId session, const std::string& name);
  QueryResponse ExecuteSql(SessionId session, const std::string& sql);
  QueryResponse ExecuteSpec(SessionId session, opt::QuerySpec spec);

  // ---- Statistics lifecycle ----

  /// UPDATE STATISTICS through the service: rebuilds the database's
  /// statistics (bumping the epoch, which invalidates every cached plan)
  /// and resets the drift profiles, which described the old statistics.
  void UpdateStatistics(const stats::StatisticsConfig& config = {});

  // ---- Introspection ----
  AdmissionController* admission() { return &admission_; }
  PlanCache* plan_cache() { return &cache_; }
  /// One row per statement fingerprint: SLO scopes of every request that
  /// reaches the plan phase, estimation quality of executed reads (drift
  /// detection), the tables each statement reads, the plan column —
  /// provenance and plan-diff records (the shell's `.whyplan`) — and,
  /// while config().trace_requests, the exemplar span trees (the shell's
  /// `.blackbox`).
  obs::FingerprintLedger* ledger() { return &ledger_; }
  const obs::FingerprintLedger* ledger() const { return &ledger_; }

  uint64_t queries_completed() const { return queries_completed_; }
  uint64_t queries_failed() const { return queries_failed_; }

  /// Publishes the server.* family (admission, plan cache, sessions,
  /// stats.epoch) plus the ledger's series into `metrics`
  /// (no-op on null). Idempotent.
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

  /// Metrics sink (borrowed, nullable). Per-request execution metrics are
  /// merged into it in admission order during the reduce phase.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  struct PendingRequest;
  struct RequestContext;
  using ArmedSpecs = std::vector<std::pair<std::string, fault::FaultSpec>>;

  /// Adds one fault fire to a request's running total and stamps the
  /// request trace. Every phase (PLAN, EXECUTE, REDUCE) funnels through
  /// this so fires accumulate instead of overwriting each other.
  static void NoteRequestFaultFire(PendingRequest* work, const char* site);
  /// Closes a request's root span with `status` and packs the request's
  /// trace for its ledger record (nullopt when the request is untraced).
  /// Both ledger records go through here: plan failures, and finished
  /// requests with their service time.
  std::optional<obs::RequestTrace> FinishTrace(PendingRequest* work,
                                               const Status& status,
                                               double service_seconds = 0.0);

  /// Files the provenance record of a freshly optimized plan in the
  /// ledger (which files the plan diff on a re-plan). Sequential PLAN
  /// phase only.
  void RecordProvenance(const PendingRequest& work, const PlanCacheKey& key,
                        uint64_t epoch, PlanCacheOutcome outcome);

  core::Database* db_;
  ServerConfig config_;
  SessionManager sessions_;
  AdmissionController admission_;
  PlanCache cache_;
  obs::FingerprintLedger ledger_;
  /// One executor workspace per task-pool worker (EXECUTE phase).
  std::vector<std::unique_ptr<exec::Workspace>> workspaces_;
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t queries_completed_ = 0;
  uint64_t queries_failed_ = 0;
  uint64_t next_request_id_ = 0;
};

}  // namespace server
}  // namespace robustqo

#endif  // ROBUSTQO_SERVER_QUERY_SERVICE_H_
