#include "server/query_service.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "obs/trace.h"
#include "perf/task_pool.h"
#include "util/string_util.h"

namespace robustqo {
namespace server {

/// Per-request state threaded through the scheduler's phases. Lives in a
/// ticket-keyed map so addresses stay stable across waves.
struct QueryService::PendingRequest {
  size_t index = 0;         ///< position in the batch (response slot)
  uint64_t ticket = 0;
  uint64_t request_id = 0;  ///< dense service-wide ordinal
  SessionId session_id = 0;
  Session* session = nullptr;  ///< null when the session is unknown
  opt::QuerySpec spec;
  /// Write path: engaged (is_dml) requests skip the plan cache and the
  /// parallel execute phase; they apply sequentially in REDUCE.
  bool is_dml = false;
  robustqo::sql::DmlSpec dml;
  uint64_t fingerprint = 0;
  uint64_t waves_waited = 0;
  // -- request trace (engaged only while config().trace_requests) --
  // Created in the sequential submit phase and touched by exactly one
  // thread at a time (the sequential phases, then this request's execute
  // task), so its records are a pure function of the request's inputs.
  std::unique_ptr<obs::Tracer> tracer;
  uint64_t root_span = 0;
  std::string cache_outcome;
  bool governor_tripped = false;
  uint64_t fault_fires = 0;
  // -- plan phase --
  std::shared_ptr<const opt::PlannedQuery> plan;
  bool cache_hit = false;
  double effective_threshold = 0.0;
  uint64_t seed = 0;
  fault::GovernorLimits limits;
  std::set<std::string> tables;  ///< what a read statement reads
  // -- execute phase --
  Status exec_status = Status::OK();
  std::optional<core::ExecutionResult> result;
  std::optional<exec::DmlResult> dml_result;
  std::unique_ptr<obs::MetricsRegistry> exec_metrics;
};

/// One request's private execution context: a governor under its
/// session's limits, an injector replaying the batch's armed specs under
/// the request seed, and the request's own metrics shard and tracer.
/// Shares nothing with other requests, so reads build it on pool workers.
struct QueryService::RequestContext {
  fault::FaultInjector injector;
  fault::QueryGovernor governor;
  exec::ExecContext ctx;

  RequestContext(PendingRequest* work, core::Database* db,
                 const ArmedSpecs& armed_specs, bool with_metrics,
                 uint64_t snapshot_epoch)
      : injector(work->seed), governor(work->limits) {
    for (const auto& [site, spec] : armed_specs) injector.Arm(site, spec);
    ctx.catalog = db->catalog();
    ctx.cost_model = db->cost_model();
    ctx.governor = &governor;
    ctx.fault = &injector;
    ctx.snapshot_epoch = snapshot_epoch;
    if (with_metrics) {
      work->exec_metrics = std::make_unique<obs::MetricsRegistry>();
      ctx.metrics = work->exec_metrics.get();
      injector.set_metrics(ctx.metrics);
    }
    // The tracer moves to this context's thread for the duration of the
    // run; the coordinator does not touch it again until the reduce phase.
    if (work->tracer != nullptr) {
      ctx.tracer = work->tracer.get();
      injector.set_tracer(ctx.tracer);
    }
  }
  // `ctx` points at this object's own governor and injector.
  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// Folds the run's governor trip and fault fires into the request.
  /// Accumulate, not assign: a degraded plan-cache lookup or a plan-time
  /// probe may already have counted fires for this request.
  void Settle(PendingRequest* work) const {
    work->governor_tripped = governor.tripped();
    work->fault_fires += injector.total_fires();
  }
};

QueryService::QueryService(core::Database* db, ServerConfig config)
    : db_(db),
      config_(config),
      sessions_(config.seed),
      admission_(config.admission),
      ledger_(config.quality) {
  admission_.set_fault_injector(db_->fault_injector());
  cache_.set_fault_injector(db_->fault_injector());
}

void QueryService::NoteRequestFaultFire(PendingRequest* work,
                                        const char* site) {
  // Accumulate, not assign: the same request can absorb fires in PLAN,
  // EXECUTE and REDUCE, and each phase must add to the running total (the
  // overwrite bug this helper exists to prevent).
  ++work->fault_fires;
  if (work->tracer != nullptr) {
    work->tracer->Event("fault", "fired", {{"site", site}});
  }
}

std::optional<obs::RequestTrace> QueryService::FinishTrace(
    PendingRequest* work, const Status& status, double service_seconds) {
  if (work->tracer == nullptr) return std::nullopt;
  const char* code = StatusCodeName(status.code());
  work->tracer->EndSpan(work->root_span, {{"status", code}});
  obs::RequestTrace trace;
  trace.request_id = work->request_id;
  trace.session_id = work->session_id;
  trace.session_label = work->session->name();
  trace.status = code;
  trace.failed = !status.ok();
  trace.governor_tripped = work->governor_tripped;
  trace.fault_fires = work->fault_fires;
  trace.cache_outcome = work->cache_outcome;
  trace.waves_waited = work->waves_waited;
  trace.service_seconds = service_seconds;
  trace.events = work->tracer->ReleaseEvents();
  return trace;
}

SessionId QueryService::OpenSession(SessionOptions options) {
  return sessions_.Open(std::move(options));
}

Status QueryService::CloseSession(SessionId id) { return sessions_.Close(id); }

Status QueryService::Prepare(SessionId session_id, const std::string& name,
                             const std::string& sql) {
  Session* session = sessions_.Get(session_id);
  if (session == nullptr) {
    return Status::NotFound(StrPrintf(
        "no open session %llu", static_cast<unsigned long long>(session_id)));
  }
  Result<robustqo::sql::ParsedStatement> parsed =
      robustqo::sql::ParseStatement(*db_->catalog(), sql);
  if (!parsed.ok()) return parsed.status();
  PreparedStatement statement;
  statement.name = name;
  statement.sql = sql;
  statement.kind = parsed.value().kind;
  if (statement.is_dml()) {
    statement.dml = std::move(parsed.value().dml);
    statement.fingerprint = FingerprintStatementText(sql);
  } else {
    statement.spec = std::move(parsed.value().query);
    statement.fingerprint = FingerprintQuery(statement.spec);
  }
  return session->Prepare(std::move(statement));
}

std::vector<QueryResponse> QueryService::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> responses(requests.size());
  std::map<uint64_t, PendingRequest> pending;  // ticket -> request

  // Phase 1 — SUBMIT (sequential, request order). Requests that cannot
  // reach the queue (unknown session, parse error, unknown prepared
  // statement) and typed admission rejections resolve here, untraced:
  // their typed status is the whole story. Every request draws a dense
  // request id here — including ones that never queue — so exemplar lanes
  // and responses share one naming scheme.
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    QueryResponse& response = responses[i];
    response.session = request.session;
    PendingRequest work;
    work.index = i;
    work.request_id = ++next_request_id_;
    work.session_id = request.session;
    response.request_id = work.request_id;
    work.session = sessions_.Get(request.session);
    Session* session = work.session;
    if (session == nullptr) {
      response.status = Status::NotFound(
          StrPrintf("no open session %llu",
                    static_cast<unsigned long long>(request.session)));
      continue;
    }
    session->CountSubmitted();
    if (!request.prepared.empty()) {
      const PreparedStatement* statement =
          session->FindPrepared(request.prepared);
      if (statement == nullptr) {
        session->CountFailed();
        response.status =
            Status::NotFound("no prepared statement '" + request.prepared + "'");
        continue;
      }
      work.is_dml = statement->is_dml();
      if (work.is_dml) {
        work.dml = statement->dml;
      } else {
        work.spec = statement->spec;
      }
      work.fingerprint = statement->fingerprint;
    } else if (request.spec.has_value()) {
      work.spec = *request.spec;
      work.fingerprint = FingerprintQuery(work.spec);
    } else {
      Result<robustqo::sql::ParsedStatement> parsed =
          robustqo::sql::ParseStatement(*db_->catalog(), request.sql);
      if (!parsed.ok()) {
        session->CountFailed();
        response.status = parsed.status();
        continue;
      }
      work.is_dml = parsed.value().kind != robustqo::sql::StatementKind::kQuery;
      if (work.is_dml) {
        work.dml = std::move(parsed.value().dml);
        work.fingerprint = FingerprintStatementText(request.sql);
      } else {
        work.spec = std::move(parsed.value().query);
        work.fingerprint = FingerprintQuery(work.spec);
      }
    }
    response.fingerprint = work.fingerprint;
    Result<uint64_t> ticket = admission_.Submit(request.session);
    if (!ticket.ok()) {
      session->CountRejected();
      response.status = ticket.status();
      continue;
    }
    work.ticket = ticket.value();
    response.ticket = work.ticket;
    if (config_.trace_requests) {
      work.tracer = std::make_unique<obs::Tracer>();
      work.root_span = work.tracer->BeginSpan(
          "server", "request",
          {{"request", obs::AttrU64(work.request_id)},
           {"session", obs::AttrU64(request.session)}});
      work.tracer->Event("server", "submit",
                         {{"outcome", "queued"},
                          {"ticket", obs::AttrU64(work.ticket)},
                          {"fingerprint", obs::FingerprintHex(work.fingerprint)}});
    }
    pending.emplace(work.ticket, std::move(work));
  }

  // Snapshot the database injector's arming once per batch: every
  // per-request injector replays the same specs under its own seed.
  const ArmedSpecs armed_specs = db_->fault_injector()->ArmedSpecs();

  while (!pending.empty()) {
    std::vector<AdmissionTicket> wave = admission_.AdmitWave();
    if (wave.empty()) {
      // Cannot happen with a correct controller (the head of a non-empty
      // queue is always admittable once in-flight drains); fail closed
      // rather than spinning.
      for (auto& [ticket, work] : pending) {
        responses[work.index].status =
            Status::Internal("admission wedged: no admissible request");
        work.session->CountFailed();
        ++queries_failed_;
      }
      break;
    }

    // Phase 2 — PLAN (sequential, admission order): plan-cache lookups and
    // optimizer runs share the database's single-threaded planning stack,
    // and per-request seeds are drawn here so they are scheduling-free.
    std::vector<PendingRequest*> running;
    running.reserve(wave.size());
    const uint64_t epoch = db_->statistics()->epoch();
    for (const AdmissionTicket& admitted : wave) {
      PendingRequest& work = pending.at(admitted.ticket);
      work.waves_waited = admitted.waves_waited;
      const SessionOptions& options = work.session->options();
      work.effective_threshold = options.confidence_threshold > 0.0
                                     ? options.confidence_threshold
                                     : db_->confidence_threshold();
      if (work.tracer != nullptr) {
        work.tracer->Event(
            "server", "admitted",
            {{"wave", obs::AttrU64(admission_.stats().waves)},
             {"waves_waited", obs::AttrU64(work.waves_waited)},
             {"queue_wait_seconds",
              obs::AttrF(ledger_.QueueWaitSeconds(work.waves_waited))}});
      }
      if (work.is_dml) {
        // Writes never touch the plan cache or the optimizer; they apply
        // sequentially in the reduce phase. The request still draws its
        // seed here, in admission order, so read/write mixes stay
        // scheduling-free.
        work.cache_outcome = "dml";
        if (work.tracer != nullptr) {
          work.tracer->Event("server", "plan",
                             {{"cache", "dml"},
                              {"table", work.dml.table}});
        }
        work.seed = work.session->NextRequestSeed();
        work.limits = options.governor_limits;
        running.push_back(&work);
        continue;
      }
      const PlanCacheKey key = PlanCacheKey::Make(
          work.fingerprint, work.effective_threshold, options.estimator);
      PlanCacheOutcome cache_outcome = PlanCacheOutcome::kMiss;
      work.plan = cache_.Lookup(key, epoch, &cache_outcome);
      work.cache_hit = work.plan != nullptr;
      work.cache_outcome = PlanCacheOutcomeName(cache_outcome);
      // A degraded lookup means the server.plan_cache.lookup fault fired
      // for this request — that makes its trace an incident, and the trace
      // itself names the site (the shared injector's own event goes to the
      // database's tracer, not this request's).
      if (cache_outcome == PlanCacheOutcome::kDegradedFault) {
        NoteRequestFaultFire(&work, fault::sites::kPlanCacheLookup);
      }
      uint64_t plan_span = 0;
      if (work.tracer != nullptr) {
        plan_span = work.tracer->BeginSpan(
            "server", "plan",
            {{"cache", work.cache_outcome},
             {"threshold", obs::AttrF(work.effective_threshold)},
             {"epoch", obs::AttrU64(epoch)}});
      }
      if (work.plan == nullptr) {
        // Everything this request plans under travels with the call: its
        // effective T%, provenance capture and its tracer, which nests
        // optimizer, estimator and plan-time fault events under the plan
        // span.
        opt::OptimizerOptions plan_options;
        plan_options.confidence_threshold_hint = work.effective_threshold;
        plan_options.provenance_enabled = true;
        plan_options.provenance_top_k = ServerConfig::provenance_top_k;
        plan_options.tracer = work.tracer.get();
        // Accumulate, not assign (same bug class as the EXECUTE phase):
        // plan-time probes against the shared injector — the estimator's
        // statistics reads — must add to fires already counted for this
        // request, e.g. a degraded plan-cache lookup.
        const uint64_t plan_fires_before = db_->fault_injector()->total_fires();
        Result<opt::PlannedQuery> planned =
            db_->Plan(work.spec, options.estimator, plan_options);
        work.fault_fires +=
            db_->fault_injector()->total_fires() - plan_fires_before;
        if (!planned.ok()) {
          responses[work.index].status = planned.status();
          admission_.Complete(admitted.ticket);
          work.session->CountFailed();
          ++queries_failed_;
          if (work.tracer != nullptr) {
            work.tracer->EndSpan(
                plan_span,
                {{"status", StatusCodeName(planned.status().code())}});
          }
          obs::RequestObservation observation;
          observation.session_label = work.session->name();
          observation.fingerprint = work.fingerprint;
          observation.failed = true;
          observation.queue_waves = work.waves_waited;
          const std::optional<obs::RequestTrace> trace =
              FinishTrace(&work, planned.status());
          ledger_.Record(observation, nullptr, trace ? &*trace : nullptr);
          pending.erase(admitted.ticket);
          continue;
        }
        work.plan = std::make_shared<const opt::PlannedQuery>(
            std::move(planned).value());
        cache_.Insert(key, work.plan, epoch);
        // Record after the fresh optimizer run; cache hits keep their
        // existing record.
        RecordProvenance(work, key, epoch, cache_outcome);
      }
      if (work.tracer != nullptr) {
        work.tracer->EndSpan(
            plan_span,
            {{"label", work.plan->label},
             {"estimated_cost_seconds", obs::AttrF(work.plan->estimated_cost)}});
      }
      // The ledger keeps the tables a statement reads, so a later drift
      // flag can route them to the statistics-rebuild queue.
      work.tables = work.spec.TableNames();
      work.seed = work.session->NextRequestSeed();
      work.limits = options.governor_limits;
      running.push_back(&work);
    }

    // Phase 3 — EXECUTE (parallel): pure per-request tasks writing to
    // pre-allocated slots. Each task runs the plan through core::RunPlan,
    // the database's own read path, under a private RequestContext;
    // nothing in the database is touched. Every read in the wave is pinned
    // to the data epoch captured here — writes only commit in the
    // sequential reduce phase, so what a wave's reads see is independent
    // of scheduling and thread count.
    const uint64_t wave_snapshot = db_->catalog()->data_epoch();
    perf::TaskPool* pool = perf::TaskPool::Global();
    while (workspaces_.size() < pool->threads()) {
      workspaces_.push_back(std::make_unique<exec::Workspace>());
    }
    pool->ParallelForWorker(running.size(), [&](unsigned worker, size_t i) {
      PendingRequest* work = running[i];
      if (work->is_dml) return;  // applied sequentially in REDUCE
      RequestContext run(work, db_, armed_specs, metrics_ != nullptr,
                         wave_snapshot);
      run.ctx.set_workspace(workspaces_[worker].get());
      uint64_t exec_span = 0;
      if (work->tracer != nullptr) {
        exec_span = work->tracer->BeginSpan(
            "server", "execute", {{"seed", obs::AttrU64(work->seed)}});
      }
      Result<core::ExecutionResult> result =
          core::RunPlan(*work->plan, &run.ctx);
      run.Settle(work);
      if (!result.ok()) {
        work->exec_status = result.status();
      } else {
        work->result = std::move(result).value();
      }
      if (work->tracer != nullptr) {
        obs::TraceAttrs end_attrs = {
            {"status", StatusCodeName(work->exec_status.code())},
            {"simulated_seconds", obs::AttrF(run.ctx.meter.total_seconds())},
            {"governor_tripped", work->governor_tripped ? "1" : "0"},
            {"peak_memory_bytes",
             obs::AttrU64(run.governor.peak_memory_bytes())},
            {"fault_fires", obs::AttrU64(work->fault_fires)}};
        if (work->result.has_value()) {
          end_attrs.push_back(
              {"rows", obs::AttrU64(work->result->rows.num_rows())});
        }
        work->tracer->EndSpan(exec_span, std::move(end_attrs));
      }
    });

    // Phase 4 — REDUCE (sequential, admission order): apply DML against
    // the latest state, release admission slots, merge metric shards,
    // apply session tallies, and record each request in the ledger. Writes
    // commit here — one at a time, in admission order — so the data-epoch
    // sequence (and therefore every snapshot any request reads) is a pure
    // function of the request order.
    for (PendingRequest* work : running) {
      if (work->is_dml) {
        // Writes go through Database::ApplyDml, the database's own write
        // path, against the latest committed state: earlier writes of the
        // same wave (applied just before this one) are visible.
        RequestContext run(work, db_, armed_specs, metrics_ != nullptr,
                           storage::kLatestSnapshot);
        uint64_t write_span = 0;
        if (work->tracer != nullptr) {
          write_span = work->tracer->BeginSpan(
              "server", "write",
              {{"seed", obs::AttrU64(work->seed)}, {"table", work->dml.table}});
        }
        Result<exec::DmlResult> written = db_->ApplyDml(work->dml, &run.ctx);
        run.Settle(work);
        if (!written.ok()) {
          work->exec_status = written.status();
        } else {
          work->dml_result = written.value();
          if (work->exec_metrics != nullptr) {
            work->exec_metrics->GetCounter("server.dml.rows_written")
                ->Increment(written.value().rows_inserted +
                            written.value().rows_deleted);
          }
        }
        if (work->tracer != nullptr) {
          obs::TraceAttrs end_attrs = {
              {"status", StatusCodeName(work->exec_status.code())},
              {"fault_fires", obs::AttrU64(work->fault_fires)}};
          if (work->dml_result.has_value()) {
            const exec::DmlResult& dml = *work->dml_result;
            end_attrs.push_back(
                {"rows_affected", obs::AttrU64(dml.rows_affected())});
            end_attrs.push_back({"epoch", obs::AttrU64(dml.epoch)});
            end_attrs.push_back(
                {"commit_attempts",
                 obs::AttrU64(static_cast<uint64_t>(dml.retry.attempts))});
          }
          work->tracer->EndSpan(write_span, std::move(end_attrs));
        }
      }
      admission_.Complete(work->ticket);
      QueryResponse& response = responses[work->index];
      response.ticket = work->ticket;
      response.fingerprint = work->fingerprint;
      response.cache_hit = work->cache_hit;
      response.waves_waited = work->waves_waited;
      if (metrics_ != nullptr && work->exec_metrics != nullptr) {
        metrics_->MergeFrom(*work->exec_metrics);
      }
      const bool ok = work->exec_status.ok();
      const double actual_seconds =
          ok && work->result.has_value() ? work->result->simulated_seconds
                                         : 0.0;
      const double estimated_seconds =
          work->plan != nullptr ? work->plan->estimated_cost : 0.0;
      obs::QualityObservation quality;
      const bool executed_read = ok && !work->is_dml;
      if (ok) {
        if (work->is_dml) {
          response.dml = work->dml_result;
        } else {
          quality.label = work->plan->label;
          quality.estimated_rows = work->plan->estimated_spj_rows;
          quality.actual_rows = static_cast<double>(work->result->spj_rows);
          quality.confidence_threshold = work->effective_threshold;
          response.result = std::move(work->result);
        }
        work->session->CountCompleted();
        ++queries_completed_;
      } else {
        response.status = work->exec_status;
        work->session->CountFailed();
        ++queries_failed_;
      }
      obs::RequestObservation observation;
      observation.session_label = work->session->name();
      observation.fingerprint = work->fingerprint;
      observation.failed = !ok;
      observation.cache_hit = work->cache_hit;
      observation.dml = work->is_dml;
      observation.queue_waves = work->waves_waited;
      observation.actual_seconds = actual_seconds;
      observation.estimated_seconds = estimated_seconds;
      observation.tables = std::move(work->tables);
      const double service_seconds = ledger_.ServiceSeconds(
          actual_seconds, work->cache_hit, work->is_dml);
      if (work->tracer != nullptr) {
        const double regret =
            ok ? std::max(0.0, actual_seconds - estimated_seconds) : 0.0;
        work->tracer->Event(
            "server", "complete",
            {{"status", StatusCodeName(work->exec_status.code())},
             {"service_seconds", obs::AttrF(service_seconds)},
             {"regret_seconds", obs::AttrF(regret)}});
      }
      const std::optional<obs::RequestTrace> trace =
          FinishTrace(work, work->exec_status, service_seconds);
      ledger_.Record(observation, executed_read ? &quality : nullptr,
                     trace ? &*trace : nullptr);
      pending.erase(work->ticket);
    }

    // Drift hook: a fingerprint whose recent q-error regressed past the
    // drift factor flags the tables it reads for the rebuild below — the
    // cache must not keep serving a plan chosen for data that moved.
    for (const obs::FingerprintQuality& drifted : ledger_.Drifted()) {
      for (const std::string& table : ledger_.Tables(drifted.fingerprint)) {
        db_->statistics()->MarkPendingRebuild(table);
      }
    }

    // Background statistics maintenance: tables flagged stale — by
    // committed-write volume (ObserveCommit's policy) or by the drift hook
    // above — rebuild now, before the next wave plans. The epoch bump
    // makes every cached plan stale at its next lookup; nobody calls
    // UPDATE STATISTICS.
    if (db_->statistics()->RebuildPending() &&
        db_->RebuildPendingStatistics() > 0) {
      ledger_.ResetQuality();
    }
  }
  return responses;
}

void QueryService::RecordProvenance(const PendingRequest& work,
                                    const PlanCacheKey& key, uint64_t epoch,
                                    PlanCacheOutcome outcome) {
  obs::PlanProvenanceRecord record;
  record.fingerprint = key.fingerprint;
  record.threshold_bits = key.threshold_bits;
  record.estimator = key.estimator_name();
  record.epoch = epoch;
  record.plan_label = work.plan->label;
  record.estimated_cost = work.plan->estimated_cost;
  record.estimated_rows = work.plan->estimated_rows;
  record.sensitivity = work.plan->sensitivity;
  ledger_.RecordPlan(std::move(record), PlanCacheOutcomeName(outcome));
}

QueryResponse QueryService::ExecutePrepared(SessionId session,
                                            const std::string& name) {
  std::vector<QueryResponse> responses =
      ExecuteBatch({QueryRequest::Prepared(session, name)});
  return std::move(responses[0]);
}

QueryResponse QueryService::ExecuteSql(SessionId session,
                                       const std::string& sql) {
  std::vector<QueryResponse> responses =
      ExecuteBatch({QueryRequest::Sql(session, sql)});
  return std::move(responses[0]);
}

QueryResponse QueryService::ExecuteSpec(SessionId session,
                                        opt::QuerySpec spec) {
  std::vector<QueryResponse> responses =
      ExecuteBatch({QueryRequest::Spec(session, std::move(spec))});
  return std::move(responses[0]);
}

void QueryService::UpdateStatistics(const stats::StatisticsConfig& config) {
  // The epoch bump invalidates every cached plan lazily.
  db_->UpdateStatistics(config);
  ledger_.ResetQuality();
}

void QueryService::PublishMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  admission_.PublishMetrics(metrics);
  cache_.PublishMetrics(metrics);
  ledger_.PublishMetrics(metrics);
  metrics->GetGauge("server.sessions.open")
      ->Set(static_cast<double>(sessions_.open_count()));
  metrics->GetGauge("server.sessions.opened_total")
      ->Set(static_cast<double>(sessions_.opened_total()));
  const auto sync = [metrics](const char* name, uint64_t value) {
    obs::Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("server.queries.completed", queries_completed_);
  sync("server.queries.failed", queries_failed_);
  metrics->GetGauge("stats.epoch")
      ->Set(static_cast<double>(db_->statistics()->epoch()));
}

}  // namespace server
}  // namespace robustqo
