#include "workload/traffic_harness.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "perf/task_pool.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace robustqo {
namespace workload {

namespace {

/// Seeded exponential draw with mean `mean` (0 mean = no pause).
double ExpDraw(Rng* rng, double mean) {
  if (mean <= 0.0) return 0.0;
  double u = rng->NextDouble();
  if (u >= 1.0) u = 0.9999999999;
  return -mean * std::log(1.0 - u);
}

struct Client {
  size_t id = 0;
  server::SessionId session = 0;
  Rng rng{0};
  /// Simulated time of the client's next issue; infinity = done.
  double due = 0.0;
  /// Rotating cursor into the statement list.
  size_t cursor = 0;
  /// Rotating cursor into the write-statement list.
  size_t write_cursor = 0;
  /// Issues this client has resolved (not advanced by rejected retries, so
  /// the retried issue redraws the same read/write kind).
  uint64_t issue_ordinal = 0;
};

/// Random-access per-issue write decision: a pure hash of (client seed,
/// issue ordinal), so the kind never depends on scheduling or on how many
/// think-time draws the client's sequential stream has consumed.
bool IsWriteIssue(const TrafficConfig& config, size_t client_id,
                  uint64_t ordinal) {
  if (config.write_fraction <= 0.0 || config.write_statements.empty()) {
    return false;
  }
  const uint64_t h = perf::TaskSeed(
      config.base_seed ^ 0x9e3779b97f4a7c15ULL, client_id * 0x10001 + ordinal);
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 53-bit
  return u < config.write_fraction;
}

}  // namespace

std::string TrafficReport::Summary() const {
  const uint64_t lookups = plan_cache.hits + plan_cache.misses;
  std::string out = StrPrintf(
      "traffic: issued=%llu completed=%llu failed=%llu rejected=%llu "
      "batches=%llu\n",
      static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(batches));
  out += StrPrintf("  duration=%.3f simulated s  throughput=%.6f qps\n",
                   duration_seconds, throughput_qps);
  if (writes_issued > 0) {
    out += StrPrintf(
        "  writes: issued=%llu committed=%llu rows=%llu commit_retries=%llu "
        "final_epoch=%llu\n",
        static_cast<unsigned long long>(writes_issued),
        static_cast<unsigned long long>(writes_committed),
        static_cast<unsigned long long>(write_rows),
        static_cast<unsigned long long>(commit_retries),
        static_cast<unsigned long long>(final_data_epoch));
  }
  out += StrPrintf(
      "  latency (simulated s): p50=%.6f p90=%.6f p99=%.6f max=%.6f n=%llu\n",
      latency.Quantile(0.5), latency.Quantile(0.9), latency.Quantile(0.99),
      latency_max_seconds, static_cast<unsigned long long>(latency.count()));
  out += StrPrintf(
      "  queue wait (simulated s): p50=%.6f p95=%.6f p99=%.6f n=%llu\n",
      queue_wait.Quantile(0.5), queue_wait.Quantile(0.95),
      queue_wait.Quantile(0.99),
      static_cast<unsigned long long>(queue_wait.count()));
  out += StrPrintf(
      "  service time (simulated s): p50=%.6f p95=%.6f p99=%.6f n=%llu\n",
      service_time.Quantile(0.5), service_time.Quantile(0.95),
      service_time.Quantile(0.99),
      static_cast<unsigned long long>(service_time.count()));
  out += StrPrintf(
      "  plan cache: hits=%llu misses=%llu hit_rate=%.4f evictions=%llu "
      "invalidated_epoch=%llu\n",
      static_cast<unsigned long long>(plan_cache.hits),
      static_cast<unsigned long long>(plan_cache.misses),
      lookups == 0 ? 0.0 : static_cast<double>(plan_cache.hits) / lookups,
      static_cast<unsigned long long>(plan_cache.evictions_lru),
      static_cast<unsigned long long>(plan_cache.invalidated_epoch));
  out += StrPrintf(
      "  admission: admitted=%llu waited=%llu rejected_queue_full=%llu "
      "rejected_fault=%llu peak_in_flight=%llu peak_queue=%llu\n",
      static_cast<unsigned long long>(admission.admitted),
      static_cast<unsigned long long>(admission.waited),
      static_cast<unsigned long long>(admission.rejected_queue_full),
      static_cast<unsigned long long>(admission.rejected_fault),
      static_cast<unsigned long long>(admission.peak_in_flight),
      static_cast<unsigned long long>(admission.peak_queue_depth));
  if (!slo_report.empty()) out += slo_report;
  return out;
}

TrafficReport RunTraffic(server::QueryService* service,
                         const TrafficConfig& config) {
  TrafficReport report;
  report.duration_seconds = config.duration_seconds;
  if (config.statements.empty() || config.clients == 0) return report;
  const obs::FingerprintLedger& ledger = *service->ledger();
  const std::vector<double> thresholds =
      config.thresholds.empty() ? std::vector<double>{0.0} : config.thresholds;

  // Open one session per client and PREPARE every statement in it. The
  // per-session statement names are shared, so all clients at the same T%
  // funnel into the same plan-cache entries.
  std::vector<Client> clients(config.clients);
  for (size_t i = 0; i < clients.size(); ++i) {
    Client& client = clients[i];
    client.id = i;
    client.rng = Rng(perf::TaskSeed(config.base_seed, i));
    server::SessionOptions options;
    options.name = StrPrintf("client-%zu", i);
    options.confidence_threshold = thresholds[i % thresholds.size()];
    client.session = service->OpenSession(options);
    for (size_t s = 0; s < config.statements.size(); ++s) {
      service->Prepare(client.session, StrPrintf("q%zu", s),
                       config.statements[s]);
    }
    for (size_t s = 0; s < config.write_statements.size(); ++s) {
      service->Prepare(client.session, StrPrintf("w%zu", s),
                       config.write_statements[s]);
    }
    // Staggered first issue so the whole population doesn't arrive at t=0.
    const double mean = config.mode == TrafficMode::kClosedLoop
                            ? config.think_seconds
                            : config.interarrival_seconds;
    client.due = ExpDraw(&client.rng, mean);
    client.cursor = i % config.statements.size();
  }

  const double kDone = std::numeric_limits<double>::infinity();
  while (true) {
    // Next batch window: starts at the earliest pending issue.
    double window_start = kDone;
    for (const Client& client : clients) {
      window_start = std::min(window_start, client.due);
    }
    if (window_start > config.duration_seconds) break;
    const double window_end = window_start + config.batch_window_seconds;

    // All requests due inside the window, in (due, client id) order —
    // the deterministic arrival order of this batch.
    std::vector<size_t> batch;
    for (const Client& client : clients) {
      if (client.due < window_end && client.due <= config.duration_seconds) {
        batch.push_back(client.id);
      }
    }
    std::sort(batch.begin(), batch.end(), [&](size_t a, size_t b) {
      if (clients[a].due != clients[b].due) {
        return clients[a].due < clients[b].due;
      }
      return a < b;
    });

    std::vector<server::QueryRequest> requests;
    std::vector<bool> is_write;
    requests.reserve(batch.size());
    is_write.reserve(batch.size());
    for (size_t id : batch) {
      Client& client = clients[id];
      const bool write = IsWriteIssue(config, client.id, client.issue_ordinal);
      is_write.push_back(write);
      const std::string name =
          write ? StrPrintf("w%zu",
                            client.write_cursor % config.write_statements.size())
                : StrPrintf("q%zu", client.cursor % config.statements.size());
      requests.push_back(
          server::QueryRequest::Prepared(client.session, name));
      // Cursors and the issue ordinal only advance once the response is
      // known non-rejected, so a rejected retry re-issues the same
      // statement as the same kind.
    }
    std::vector<server::QueryResponse> responses =
        service->ExecuteBatch(requests);
    ++report.batches;

    for (size_t b = 0; b < batch.size(); ++b) {
      Client& client = clients[batch[b]];
      const server::QueryResponse& response = responses[b];
      ++report.issued;
      if (is_write[b]) ++report.writes_issued;
      const double next_mean = config.mode == TrafficMode::kClosedLoop
                                   ? config.think_seconds
                                   : config.interarrival_seconds;
      if (response.status.ok()) {
        // End-to-end simulated latency: queueing (admission waves) +
        // service, both charged by the ledger's rule. Writes skip the
        // planner and report no execution cost meter, so their service
        // component is 0.
        const double queue_wait =
            ledger.QueueWaitSeconds(response.waves_waited);
        const double exec_seconds =
            response.result.has_value() ? response.result->simulated_seconds
                                        : 0.0;
        const double service_seconds = ledger.ServiceSeconds(
            exec_seconds, response.cache_hit, is_write[b]);
        const double latency = queue_wait + service_seconds;
        report.latency.Observe(latency);
        report.queue_wait.Observe(queue_wait);
        report.service_time.Observe(service_seconds);
        report.latency_max_seconds =
            std::max(report.latency_max_seconds, latency);
        ++report.completed;
        if (response.cache_hit) ++report.cache_hits;
        if (response.dml.has_value()) {
          ++report.writes_committed;
          report.write_rows += response.dml->rows_inserted +
                               response.dml->rows_deleted;
          if (response.dml->retry.attempts > 1) {
            report.commit_retries += response.dml->retry.attempts - 1;
          }
        }
        if (is_write[b]) {
          ++client.write_cursor;
        } else {
          ++client.cursor;
        }
        ++client.issue_ordinal;
        if (config.mode == TrafficMode::kClosedLoop) {
          client.due = client.due + latency + ExpDraw(&client.rng, next_mean);
        } else {
          client.due = client.due + ExpDraw(&client.rng, next_mean);
        }
      } else if (response.ticket == 0 &&
                 (response.status.code() == StatusCode::kResourceExhausted ||
                  response.status.code() == StatusCode::kUnavailable)) {
        // Typed admission rejection: the client backs off and retries the
        // same statement (cursors and ordinal untouched).
        ++report.rejected;
        client.due = client.due + config.retry_backoff_seconds;
      } else {
        ++report.failed;
        if (is_write[b]) {
          ++client.write_cursor;
        } else {
          ++client.cursor;
        }
        ++client.issue_ordinal;
        client.due = client.due + ExpDraw(&client.rng, next_mean);
      }
    }
  }

  for (Client& client : clients) service->CloseSession(client.session);
  report.admission = service->admission()->stats();
  report.plan_cache = service->plan_cache()->stats();
  report.final_data_epoch = service->database()->catalog()->data_epoch();
  report.throughput_qps =
      config.duration_seconds > 0.0
          ? static_cast<double>(report.completed) / config.duration_seconds
          : 0.0;
  if (ledger.global().observed > 0) report.slo_report = ledger.SloReportText();
  return report;
}

}  // namespace workload
}  // namespace robustqo
