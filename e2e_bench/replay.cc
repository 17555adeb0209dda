#include "replay.h"

#include <optional>
#include <utility>

#include "exec/operator.h"
#include "fault/governor.h"
#include "perf/task_pool.h"
#include "server/admission.h"
#include "sql/parser.h"

namespace robustqo {
namespace e2e {
namespace {

constexpr uint32_t kReplayProcess = 2;

/// One request's state inside its wave.
struct Work {
  const Request* request = nullptr;
  const ServedRequest* served = nullptr;
  uint64_t id = 0;
  double threshold = 0.0;
  opt::QuerySpec spec;
  sql::DmlSpec dml;
  std::shared_ptr<const opt::PlannedQuery> plan;
  bool ok = true;
  // EXECUTE-phase slot, written by one pool task.
  int64_t exec_start = 0;
  int64_t exec_end = 0;
  unsigned lane = 0;
  std::optional<storage::Table> rows;
  exec::CostMeter meter;
};

}  // namespace

ReplayResult ReplayLayers(const WorkloadSpec& spec,
                          const std::vector<Round>& rounds,
                          const std::vector<std::vector<ServedRequest>>& served,
                          const std::vector<uint32_t>& batch_spans,
                          SpanRecorder* spans) {
  ReplayResult out;
  ReplayCounts& counts = out.counts;

  double update_seconds = 0.0;
  out.db = BuildDatabase(spec, &update_seconds);
  core::Database* db = out.db.get();
  // UpdateStatistics closes the set-up; its own stopwatch gives the span.
  const int64_t setup_end = spans->Mark();
  spans->Add("statistics", "Database::UpdateStatistics",
             setup_end - static_cast<int64_t>(update_seconds * 1e9), setup_end,
             0, 0, kReplayProcess);
  db->SetProvenanceCapture(true);
  db->SetProvenanceTopK(server::ServerConfig{}.provenance_top_k);
  out.initial_rows = VisibleRowCounts(*db);

  std::map<std::string, opt::QuerySpec> prepared;
  for (const auto& [name, sql] : spec.statements) {
    Result<opt::QuerySpec> parsed = db->ParseSql(sql);
    if (!parsed.ok()) {
      ++counts.failures;
      continue;
    }
    prepared.emplace(name, std::move(parsed).value());
  }

  const size_t wave_size = server::AdmissionConfig{}.max_concurrent;
  std::map<std::pair<uint64_t, double>, std::shared_ptr<const opt::PlannedQuery>>
      plans;
  const int64_t loop_start = NowNanos();
  uint64_t request_id = 0;

  for (size_t b = 0; b < rounds.size(); ++b) {
    const Round& round = rounds[b];
    const uint32_t parent = batch_spans.empty() ? 0 : batch_spans[b];
    std::vector<Work> work(round.size());
    // SUBMIT: one-shot statements are parsed on arrival.
    for (size_t i = 0; i < round.size(); ++i) {
      Work& w = work[i];
      w.request = &round[i];
      w.served = &served[b][i];
      w.id = ++request_id;
      w.threshold = spec.thresholds[w.request->client];
      if (!w.request->prepared.empty()) {
        w.spec = prepared.at(w.request->prepared);
        continue;
      }
      const int64_t start = spans->Mark();
      if (w.request->is_dml) {
        Result<sql::ParsedStatement> parsed =
            sql::ParseStatement(*db->catalog(), w.request->sql);
        w.ok = parsed.ok();
        if (w.ok) w.dml = std::move(parsed).value().dml;
        spans->Add("sql", "sql::ParseStatement", start, spans->Mark(), parent,
                   w.id, kReplayProcess);
      } else {
        Result<opt::QuerySpec> parsed = db->ParseSql(w.request->sql);
        w.ok = parsed.ok();
        if (w.ok) w.spec = std::move(parsed).value();
        spans->Add("sql", "Database::ParseSql", start, spans->Mark(), parent,
                   w.id, kReplayProcess);
      }
      if (!w.ok) ++counts.failures;
    }

    const size_t step = wave_size == 0 ? round.size() : wave_size;
    for (size_t first = 0; first < round.size(); first += step) {
      const size_t last = std::min(round.size(), first + step);
      // PLAN (sequential, admission order).
      std::vector<Work*> reads;
      for (size_t i = first; i < last; ++i) {
        Work& w = work[i];
        if (!w.ok || w.request->is_dml) continue;
        auto& cached = plans[{w.served->fingerprint, w.threshold}];
        if (!w.served->cache_hit || cached == nullptr) {
          opt::OptimizerOptions options;
          options.confidence_threshold_hint = w.threshold;
          const int64_t start = spans->Mark();
          Result<opt::PlannedQuery> planned =
              db->Plan(w.spec, core::EstimatorKind::kRobustSample, options);
          spans->Add("optimizer", "Database::Plan", start, spans->Mark(),
                     parent, w.id, kReplayProcess);
          if (!planned.ok()) {
            w.ok = false;
            ++counts.failures;
            continue;
          }
          const opt::Optimizer::Metrics& m = db->last_optimizer_metrics();
          ++counts.plans;
          counts.estimator_calls += m.estimator_calls;
          counts.estimator_misses += m.estimator_misses;
          counts.candidates += m.candidates;
          counts.probe_hits += m.probe_cache_hits;
          counts.probe_misses += m.probe_cache_misses;
          counts.beta_hits += m.beta_cache_hits;
          counts.beta_misses += m.beta_cache_misses;
          cached = std::make_shared<const opt::PlannedQuery>(
              std::move(planned).value());
        }
        w.plan = cached;
        reads.push_back(&w);
      }

      // EXECUTE (parallel), pinned to the wave-start data epoch.
      const uint64_t snapshot = db->catalog()->data_epoch();
      const bool timed = spans->enabled();
      perf::TaskPool::Global()->ParallelForWorker(
          reads.size(), [&](unsigned worker, size_t k) {
            Work* w = reads[k];
            if (timed) w->exec_start = NowNanos();
            fault::QueryGovernor governor(db->governor_limits());
            exec::ExecContext ctx;
            ctx.catalog = db->catalog();
            ctx.cost_model = db->cost_model();
            ctx.governor = &governor;
            ctx.snapshot_epoch = snapshot;
            Result<storage::Table> rows = w->plan->root->Run(&ctx);
            if (rows.ok()) w->rows.emplace(std::move(rows).value());
            w->meter = ctx.meter;
            if (timed) w->exec_end = NowNanos();
            w->lane = worker;
          });
      for (Work* w : reads) {
        spans->Add("exec", "PhysicalOperator::Run", w->exec_start, w->exec_end,
                   parent, w->id, kReplayProcess, w->lane);
        if (!w->rows.has_value()) {
          ++counts.failures;
          continue;
        }
        if (w->served->ok && w->served->snapshot != snapshot) {
          ++counts.failures;  // the replay diverged from the service
        }
        counts.rows_examined +=
            w->meter.seq_tuples() + w->meter.index_entries();
        counts.output_tuples += w->meter.output_tuples();
        ReadRecord record;
        record.request_id = w->id;
        record.sql = w->request->sql;
        record.snapshot = snapshot;
        record.plan_label = w->plan->label;
        record.rows = std::make_shared<const storage::Table>(std::move(*w->rows));
        out.reads.push_back(std::move(record));
      }

      // REDUCE: writes in admission order, then background maintenance.
      for (size_t i = first; i < last; ++i) {
        Work& w = work[i];
        if (!w.ok || !w.request->is_dml) continue;
        const int64_t start = spans->Mark();
        Result<exec::DmlResult> result = db->ExecuteDml(w.dml);
        spans->Add("storage", "Database::ExecuteDml", start, spans->Mark(),
                   parent, w.id, kReplayProcess);
        if (!result.ok()) {
          ++counts.failures;
          continue;
        }
        const exec::DmlResult& dml = result.value();
        counts.rows_written += dml.rows_inserted + dml.rows_deleted;
        counts.commit_retries +=
            dml.retry.attempts > 1 ? static_cast<uint64_t>(dml.retry.attempts - 1) : 0;
        ApplyDml(w.dml.table, dml, &out.written_rows);
      }
      if (db->statistics()->RebuildPending()) {
        const int64_t start = spans->Mark();
        counts.rebuilds += db->RebuildPendingStatistics();
        spans->Add("statistics", "Database::RebuildPendingStatistics", start,
                   spans->Mark(), parent, 0, kReplayProcess);
      }
    }
  }
  out.wall_seconds = 1e-9 * static_cast<double>(NowNanos() - loop_start);
  return out;
}

}  // namespace e2e
}  // namespace robustqo
