// End-to-end benchmark executable.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--out <dir>]
//
// --trace 0 runs the workload through server::QueryService with no tracing
// and reports the end-to-end metrics, their wall times rescaled to a
// reference host speed (host_speed.h); --trace 1 runs the fixed prefix of
// the same stream through the service, replays it layer by layer with
// spans (replay.h), and reports the per-layer metrics. Either way the
// outputs are checked (check.h) after the timed region, a human-readable
// table goes to stdout, and the last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The exit code is 0 only when every request succeeded and every check
// passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "host_speed.h"
#include "perf/task_pool.h"
#include "replay.h"
#include "spans.h"
#include "sql/parser.h"
#include "workloads.h"

namespace robustqo {
namespace e2e {
namespace {

/// Set-ups per end-to-end run: the one that serves the timed region, and
/// the rest after the checks, so that peak memory, read at the end of the
/// fixed prefix, covers one set-up as a user's process would. setup_s is
/// their median.
constexpr int kSetupRepeats = 10;

/// Reference timings before each set-up, and rounds between two reference
/// timings in the timed loop.
constexpr int kSetupReferenceSamples = 3;
constexpr size_t kRoundsPerReferenceSample = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  unsigned threads = 1;
  std::string out_dir = ".";
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = std::atoi(value.c_str());
    } else if (flag == "--threads") {
      options->threads = static_cast<unsigned>(std::atoi(value.c_str()));
    } else if (flag == "--out") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0 &&
         (options->trace == 0 || options->trace == 1) && options->threads > 0;
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the table and the final JSON line; returns the exit code.
int Report(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// One round's service outcome, folded into run totals.
struct RunTally {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<double> batch_seconds;
  std::vector<double> sim_costs;  ///< per completed read of the prefix
  std::vector<ReadRecord> reads;
  /// Committed writes: (SQL, result), reconciled after the run.
  std::vector<std::pair<std::string, exec::DmlResult>> writes;
  uint64_t reads_attempted = 0;
  uint64_t cache_hits = 0;
  uint64_t waves_waited = 0;
};

/// Folds one batch's responses into `tally` and returns what the replay
/// needs per request. A read's snapshot is the data epoch at its wave's
/// start: the epoch before the batch, advanced by the writes of earlier
/// waves.
std::vector<ServedRequest> Tally(const Round& round,
                                 std::vector<server::QueryResponse>* responses,
                                 uint64_t epoch_before, bool in_prefix,
                                 RunTally* tally) {
  std::vector<ServedRequest> served(round.size());
  for (size_t i = 0; i < round.size(); ++i) {
    server::QueryResponse& response = (*responses)[i];
    ++tally->attempted;
    tally->waves_waited += response.waves_waited;
    served[i].ok = response.status.ok();
    served[i].cache_hit = response.cache_hit;
    served[i].fingerprint = response.fingerprint;
    if (!round[i].is_dml) ++tally->reads_attempted;
    if (response.cache_hit) ++tally->cache_hits;
    if (!response.status.ok()) {
      ++tally->failed;
      continue;
    }
    ++tally->completed;
    if (response.dml.has_value()) {
      tally->writes.emplace_back(round[i].sql, *response.dml);
      continue;
    }
    uint64_t snapshot = epoch_before;
    for (size_t j = 0; j < round.size(); ++j) {
      const server::QueryResponse& other = (*responses)[j];
      if (other.dml.has_value() && other.waves_waited < response.waves_waited) {
        snapshot = std::max(snapshot, other.dml->epoch);
      }
    }
    served[i].snapshot = snapshot;
    core::ExecutionResult& result = *response.result;
    if (in_prefix) tally->sim_costs.push_back(result.simulated_seconds);
    ReadRecord record;
    record.request_id = response.request_id;
    record.snapshot = snapshot;
    record.plan_label = result.plan_label;
    record.rows = std::make_shared<const storage::Table>(std::move(result.rows));
    record.sql = round[i].sql;
    tally->reads.push_back(std::move(record));
  }
  return served;
}

/// Reconciles committed writes against `db`'s row counts.
void CheckWrites(core::Database* db,
                 const std::map<std::string, uint64_t>& initial,
                 const std::vector<std::pair<std::string, exec::DmlResult>>& writes,
                 CheckReport* report) {
  std::map<std::string, int64_t> delta;
  for (const auto& [sql, result] : writes) {
    Result<sql::ParsedStatement> parsed =
        sql::ParseStatement(*db->catalog(), sql);
    if (!parsed.ok()) {
      report->Fail("cannot re-parse " + sql);
      continue;
    }
    ApplyDml(parsed.value().dml.table, result, &delta);
  }
  ReconcileRowCounts(*db, initial, delta, report);
}

void PrintCheck(const CheckReport& check) {
  std::printf(
      "check: %llu reads against %llu histogram-planned references "
      "(%llu with a different plan), %llu mismatches%s%s\n",
      static_cast<unsigned long long>(check.checked),
      static_cast<unsigned long long>(check.references),
      static_cast<unsigned long long>(check.plans_differ),
      static_cast<unsigned long long>(check.mismatches),
      check.first_error.empty() ? "" : "; first: ",
      check.first_error.c_str());
}

/// Times `repeats` set-ups into `seconds`, and each rescaled to the
/// reference host speed measured just before it into `scaled`; `served`
/// keeps the last one.
bool TimeSetups(const WorkloadSpec& spec, int repeats,
                std::unique_ptr<ServedDatabase>* served,
                std::vector<double>* seconds, std::vector<double>* scaled) {
  for (int i = 0; i < repeats; ++i) {
    HostSpeed speed;
    for (int k = 0; k < kSetupReferenceSamples; ++k) speed.Sample(0);
    *served = std::make_unique<ServedDatabase>();
    const auto start = std::chrono::steady_clock::now();
    if (!Serve(spec, served->get())) return false;
    seconds->push_back(Seconds(start, std::chrono::steady_clock::now()));
    scaled->push_back(seconds->back() * speed.Scale(0));
  }
  return true;
}

int RunEndToEnd(const WorkloadSpec& spec, const Options& options) {
  std::vector<double> setup_seconds;
  std::vector<double> setup_scaled;
  std::unique_ptr<ServedDatabase> served;
  if (!TimeSetups(spec, 1, &served, &setup_seconds, &setup_scaled)) {
    return 2;
  }
  core::Database* db = served->db.get();
  const std::map<std::string, uint64_t> initial_rows = VisibleRowCounts(*db);

  RequestStream stream(spec);
  RunTally tally;
  HostSpeed speed;
  // Wall time of each round: drawing it, serving it and tallying it, but
  // not the reference timings between rounds.
  std::vector<double> round_seconds;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  size_t rounds = 0;
  double peak_rss = 0.0;
  while (rounds < spec.prefix_rounds ||
         std::chrono::steady_clock::now() < deadline) {
    if (rounds % kRoundsPerReferenceSample == 0) speed.Sample(rounds);
    const auto round_start = std::chrono::steady_clock::now();
    const Round round = stream.Next();
    const uint64_t epoch_before = db->catalog()->data_epoch();
    const auto batch_start = std::chrono::steady_clock::now();
    std::vector<server::QueryResponse> responses =
        served->service->ExecuteBatch(ToServiceRequests(round, served->sessions));
    tally.batch_seconds.push_back(
        Seconds(batch_start, std::chrono::steady_clock::now()));
    Tally(round, &responses, epoch_before, rounds < spec.prefix_rounds,
          &tally);
    round_seconds.push_back(
        Seconds(round_start, std::chrono::steady_clock::now()));
    // Memory is read once the fixed prefix is done, so it does not grow
    // with how many rounds a faster build fits into the deadline.
    if (++rounds == spec.prefix_rounds) peak_rss = PeakRssMb();
  }
  speed.Sample(rounds);
  const double wall = Seconds(start, std::chrono::steady_clock::now());

  CheckReport check;
  CheckAgainstHistogram(db, tally.reads, &check);
  CheckWrites(db, initial_rows, tally.writes, &check);
  PrintCheck(check);
  served.reset();
  if (!TimeSetups(spec, kSetupRepeats - 1, &served, &setup_seconds,
                  &setup_scaled)) {
    return 2;
  }

  std::printf("setup: %d runs, min %.4f s, median %.4f s, max %.4f s\n",
              kSetupRepeats,
              *std::min_element(setup_seconds.begin(), setup_seconds.end()),
              Quantile(setup_seconds, 0.5),
              *std::max_element(setup_seconds.begin(), setup_seconds.end()));
  const uint64_t failed = tally.failed + check.mismatches;
  // Every request of a batch waits for the whole batch. Each wall time is
  // measured as is and rescaled by the host speed around it.
  std::vector<double> latency_ms;
  std::vector<double> raw_latency_ms;
  double busy = 0.0;
  double raw_busy = 0.0;
  for (size_t i = 0; i < rounds; ++i) {
    const double scale = speed.Scale(i);
    latency_ms.push_back(1e3 * tally.batch_seconds[i] * scale);
    raw_latency_ms.push_back(1e3 * tally.batch_seconds[i]);
    busy += round_seconds[i] * scale;
    raw_busy += round_seconds[i];
  }
  std::printf(
      "host: %zu reference timings, median %.4f ms; rescaled to %.1f ms. "
      "As measured: qps %.3f, latency p50 %.3f ms, p95 %.3f ms\n",
      speed.samples(), speed.MedianMs(), kReferenceMs,
      Ratio(static_cast<double>(tally.completed), raw_busy),
      Quantile(raw_latency_ms, 0.50), Quantile(raw_latency_ms, 0.95));
  std::printf(
      "%s seed=%llu threads=%u: %zu rounds of %zu clients in %.3f s; "
      "latency samples (batches) = %zu; fail_ratio = %.6f (%llu of %llu)\n",
      spec.name.c_str(), static_cast<unsigned long long>(spec.seed),
      perf::ThreadCount(), rounds, spec.thresholds.size(), wall,
      latency_ms.size(), Ratio(static_cast<double>(failed),
                               static_cast<double>(tally.attempted)),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(tally.attempted));
  const std::vector<Metric> metrics = {
      {"qps", Ratio(static_cast<double>(tally.completed), busy), "1/s"},
      {"latency_p50_ms", Quantile(latency_ms, 0.50), "ms"},
      {"latency_p95_ms", Quantile(latency_ms, 0.95), "ms"},
      {"success_ratio",
       1.0 - Ratio(static_cast<double>(failed),
                   static_cast<double>(tally.attempted)),
       "ratio"},
      {"sim_cost_mean_s", Mean(tally.sim_costs), "s"},
      {"sim_cost_p95_s", Quantile(tally.sim_costs, 0.95), "s"},
      {"setup_s", Quantile(setup_scaled, 0.5), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  return Report(failed == 0, tally.attempted, failed, metrics);
}

/// Per-layer totals derived from the spans of one traced run.
struct LayerTimes {
  std::map<std::string, std::vector<double>> call_us;  ///< by layer
  std::map<std::string, double> self_us;                ///< by layer
  double request_wall_us = 0.0;  ///< sum over batches of max(wall, covered)
  std::vector<double> batch_ms;
};

/// Attributes each batch's wall time to layers: a replay span's self time
/// is its duration (exec spans of one batch count as the union of their
/// intervals, since reads of a wave run in parallel); the server keeps
/// what the layer calls do not cover.
LayerTimes AttributeSpans(const std::vector<Span>& spans) {
  LayerTimes t;
  std::map<uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.process != 2 || s.parent == 0) continue;  // batch or set-up span
    children[s.parent].push_back(&s);
    t.call_us[s.layer].push_back(s.micros());
  }
  for (const Span& batch : spans) {
    if (batch.process != 1) continue;
    t.batch_ms.push_back(1e-3 * batch.micros());
    double covered = 0.0;
    std::vector<std::pair<int64_t, int64_t>> exec;
    for (const Span* child : children[batch.id]) {
      if (std::string(child->layer) == "exec") {
        exec.emplace_back(child->start_ns, child->end_ns);
        continue;
      }
      t.self_us[child->layer] += child->micros();
      covered += child->micros();
    }
    std::sort(exec.begin(), exec.end());
    double exec_union = 0.0;
    int64_t reach = INT64_MIN;
    for (const auto& [from, to] : exec) {
      const int64_t begin = std::max(from, reach);
      if (to > begin) exec_union += 1e-3 * static_cast<double>(to - begin);
      reach = std::max(reach, to);
    }
    t.self_us["exec"] += exec_union;
    covered += exec_union;
    t.self_us["server"] += std::max(0.0, batch.micros() - covered);
    t.request_wall_us += std::max(batch.micros(), covered);
  }
  return t;
}

int RunTraced(const WorkloadSpec& spec, const Options& options) {
  ServedDatabase served;
  if (!Serve(spec, &served)) return 2;
  core::Database* db = served.db.get();
  const std::map<std::string, uint64_t> initial_rows = VisibleRowCounts(*db);

  SpanRecorder spans(true);
  RequestStream stream(spec);
  RunTally tally;
  std::vector<Round> rounds;
  std::vector<std::vector<ServedRequest>> served_requests;
  std::vector<uint32_t> batch_spans;
  for (size_t b = 0; b < spec.prefix_rounds; ++b) {
    rounds.push_back(stream.Next());
    const uint64_t epoch_before = db->catalog()->data_epoch();
    const int64_t start = NowNanos();
    std::vector<server::QueryResponse> responses =
        served.service->ExecuteBatch(ToServiceRequests(rounds.back(), served.sessions));
    batch_spans.push_back(spans.Add("server", "QueryService::ExecuteBatch",
                                    start, NowNanos(), 0, 0, 1));
    served_requests.push_back(
        Tally(rounds.back(), &responses, epoch_before, true, &tally));
  }

  ReplayResult replay =
      ReplayLayers(spec, rounds, served_requests, batch_spans, &spans);
  SpanRecorder dropped(false);
  const ReplayResult untraced =
      ReplayLayers(spec, rounds, served_requests, {}, &dropped);

  CheckReport check;
  CheckAgainstHistogram(db, tally.reads, &check);
  CheckWrites(db, initial_rows, tally.writes, &check);
  ReconcileRowCounts(*replay.db, replay.initial_rows, replay.written_rows,
                     &check);
  // The replay reads the same snapshots, so it must return the same rows.
  std::map<uint64_t, const ReadRecord*> by_id;
  for (const ReadRecord& read : tally.reads) by_id[read.request_id] = &read;
  for (const ReadRecord& read : replay.reads) {
    auto it = by_id.find(read.request_id);
    std::string why;
    if (it == by_id.end() || it->second->snapshot != read.snapshot) {
      check.Fail("replay read " + std::to_string(read.request_id) +
                 " has no service read at the same snapshot");
    } else if (!SameRows(*read.rows, *it->second->rows, &why)) {
      check.Fail("replay read " + std::to_string(read.request_id) + ": " + why);
    }
  }
  if (replay.counts.failures != 0) {
    check.Fail(std::to_string(replay.counts.failures) + " replay calls failed");
  }
  PrintCheck(check);

  const std::string trace_path = options.out_dir + "/e2e_trace_" + spec.name +
                                 "_seed" + std::to_string(spec.seed) + ".json";
  if (!spans.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    check.Fail("trace dump failed");
  }
  std::printf("trace: %zu spans written to %s\n", spans.spans().size(),
              trace_path.c_str());

  const LayerTimes t = AttributeSpans(spans.spans());
  const ReplayCounts& c = replay.counts;
  auto self_us = [&](const char* layer) {
    const auto it = t.self_us.find(layer);
    return it == t.self_us.end() ? 0.0 : it->second;
  };
  auto share = [&](const char* layer) {
    return Ratio(self_us(layer), t.request_wall_us);
  };
  auto calls = [&](const char* layer) {
    const auto it = t.call_us.find(layer);
    return it == t.call_us.end() ? std::vector<double>{} : it->second;
  };
  // The replay's only root span is its set-up's UpdateStatistics.
  double update_s = 0.0;
  for (const Span& s : spans.spans()) {
    if (s.process == 2 && s.parent == 0) update_s = 1e-6 * s.micros();
  }
  const double plans = static_cast<double>(c.plans);
  const uint64_t failed = tally.failed + check.mismatches;
  std::printf("%s seed=%llu threads=%u: traced %zu rounds; replay %.3f s with "
              "spans, %.3f s without\n",
              spec.name.c_str(), static_cast<unsigned long long>(spec.seed),
              perf::ThreadCount(), rounds.size(), replay.wall_seconds,
              untraced.wall_seconds);
  const std::vector<Metric> metrics = {
      {"sql.parse_us_p50", Quantile(calls("sql"), 0.5), "us"},
      {"sql.share", share("sql"), "ratio"},
      {"optimizer.plan_us_p50", Quantile(calls("optimizer"), 0.5), "us"},
      {"optimizer.plan_us_p95", Quantile(calls("optimizer"), 0.95), "us"},
      {"optimizer.plans", plans, "count"},
      {"optimizer.estimates_per_plan",
       Ratio(static_cast<double>(c.estimator_calls), plans), "count"},
      {"optimizer.estimate_memo_hit_ratio",
       1.0 - Ratio(static_cast<double>(c.estimator_misses),
                   static_cast<double>(c.estimator_calls)),
       "ratio"},
      {"optimizer.candidates_per_plan",
       Ratio(static_cast<double>(c.candidates), plans), "count"},
      {"optimizer.share", share("optimizer"), "ratio"},
      {"statistics.probe_cache_hit_ratio",
       Ratio(static_cast<double>(c.probe_hits),
             static_cast<double>(c.probe_hits + c.probe_misses)),
       "ratio"},
      {"statistics.beta_cache_hit_ratio",
       Ratio(static_cast<double>(c.beta_hits),
             static_cast<double>(c.beta_hits + c.beta_misses)),
       "ratio"},
      {"statistics.update_s", update_s, "s"},
      {"statistics.rebuilds", static_cast<double>(c.rebuilds), "count"},
      {"statistics.rebuild_ms_total", 1e-3 * self_us("statistics"), "ms"},
      {"statistics.share", share("statistics"), "ratio"},
      {"exec.execute_us_p50", Quantile(calls("exec"), 0.5), "us"},
      {"exec.execute_us_p95", Quantile(calls("exec"), 0.95), "us"},
      {"exec.rows_examined_per_output",
       Ratio(static_cast<double>(c.rows_examined),
             static_cast<double>(c.output_tuples)),
       "ratio"},
      {"exec.share", share("exec"), "ratio"},
      {"storage.dml_us_p50", Quantile(calls("storage"), 0.5), "us"},
      {"storage.dml_us_p95", Quantile(calls("storage"), 0.95), "us"},
      {"storage.rows_written", static_cast<double>(c.rows_written), "count"},
      {"storage.commit_retries", static_cast<double>(c.commit_retries), "count"},
      {"storage.share", share("storage"), "ratio"},
      {"server.batches", static_cast<double>(t.batch_ms.size()), "count"},
      {"server.batch_ms_p50", Quantile(t.batch_ms, 0.5), "ms"},
      {"server.self_us_per_request",
       Ratio(self_us("server"), static_cast<double>(tally.attempted)),
       "us"},
      {"server.plan_cache_hit_ratio",
       Ratio(static_cast<double>(tally.cache_hits),
             static_cast<double>(tally.reads_attempted)),
       "ratio"},
      {"server.waves_waited_mean",
       Ratio(static_cast<double>(tally.waves_waited),
             static_cast<double>(tally.attempted)),
       "count"},
      {"server.rejected",
       static_cast<double>(served.service->admission()->stats().rejected_queue_full +
                           served.service->admission()->stats().rejected_fault),
       "count"},
      {"server.share", share("server"), "ratio"},
      {"trace.spans", static_cast<double>(spans.spans().size()), "count"},
      {"trace.overhead_ratio",
       Ratio(replay.wall_seconds, untraced.wall_seconds) - 1.0, "ratio"},
  };
  return Report(failed == 0, tally.attempted, failed, metrics);
}

}  // namespace
}  // namespace e2e
}  // namespace robustqo

int main(int argc, char** argv) {
  using namespace robustqo::e2e;
  Options options;
  WorkloadSpec spec;
  if (!ParseOptions(argc, argv, &options) ||
      !MakeWorkload(options.workload, options.seed, &spec)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <tpch_cached|star_adhoc|"
                 "tpch_write_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--threads <n>] [--out <dir>]\n");
    return 2;
  }
  // Never more workers than cores: oversubscription makes the wall-time
  // metrics track the host's scheduler instead of the engine.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  robustqo::perf::SetThreadCount(std::min(options.threads, cores));
  return options.trace == 1 ? RunTraced(spec, options)
                            : RunEndToEnd(spec, options);
}
