// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// FlightRecorder: the serving layer's black box. The query service traces
// every request while a recorder is enabled, but full traces are only
// *retained* for the requests a postmortem would actually ask about:
//
//   * incidents — requests that failed with a typed Status, tripped their
//     query governor, or hit an armed fault site (kept in a bounded FIFO
//     ring: when the ring is full the oldest incident is evicted first);
//   * the slowest-K by simulated service seconds (ties broken toward the
//     lower request id, so the retained set is a pure function of the
//     offered multiset, never of arrival interleaving).
//
// A trace can be retained for both reasons at once; it is stored once and
// dropped only when it holds neither slot. Offers happen from the query
// service's sequential reduce phase in admission order, so the recorder's
// contents — and both dump formats — are byte-identical at any RQO_THREADS
// setting. ToJson() renders the raw span records (validated by
// scripts/check_trace_json.py's tree checks via the Chrome rendering);
// ToChromeTrace() renders one Perfetto lane per request, grouped by
// session, for the shell's `.blackbox trace` export.
//
// Like the other obs classes the recorder always works when used directly;
// the query service only offers traces while `enabled` is set.

#ifndef ROBUSTQO_OBS_FLIGHT_RECORDER_H_
#define ROBUSTQO_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace robustqo {
namespace obs {

/// One request's finished trace plus the summary fields retention and the
/// dump headers need without walking the span records.
struct RequestTrace {
  /// Dense per-service request ordinal (1-based), assigned at submit time
  /// in request order — covers requests that never reached the queue.
  uint64_t request_id = 0;
  uint64_t session_id = 0;
  std::string session_label;
  /// Admission ticket (0 = rejected before entering the queue).
  uint64_t ticket = 0;
  uint64_t fingerprint = 0;
  /// "OK" or the typed StatusCode name of the failure.
  std::string status = "OK";
  bool failed = false;
  bool governor_tripped = false;
  /// Armed fault-site firings observed by this request's injector.
  uint64_t fault_fires = 0;
  /// Plan-cache outcome: "hit", "miss", "stale_epoch", "degraded_fault",
  /// "dml", or "" when the request never reached planning.
  std::string cache_outcome;
  uint64_t waves_waited = 0;
  double queue_wait_seconds = 0.0;
  /// Simulated service seconds (execution plus any planning charge).
  double service_seconds = 0.0;
  std::vector<TraceEvent> events;

  /// Whether this trace qualifies for the incident ring.
  bool IsIncident() const {
    return failed || governor_tripped || fault_fires > 0;
  }
};

struct FlightRecorderConfig {
  /// Master switch read by the query service: tracing is only materialized
  /// per request while this is true.
  bool enabled = false;
  /// Incident ring size; 0 disables incident retention.
  size_t incident_capacity = 32;
  /// Slowest-request slots; 0 disables slowest-K retention.
  size_t slowest_k = 8;
};

/// Retention accounting, exported under server.flight_recorder.*.
struct FlightRecorderStats {
  uint64_t offered = 0;
  uint64_t retained_incident = 0;
  uint64_t retained_slow = 0;
  uint64_t evicted_incident = 0;
  uint64_t evicted_slow = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  const FlightRecorderConfig& config() const { return config_; }
  const FlightRecorderStats& stats() const { return stats_; }

  /// Retained trace count (each trace counted once, whatever its reasons).
  size_t size() const { return records_.size(); }

  /// Whether a trace with `service_seconds` from request `request_id`
  /// would currently win a slowest-K slot. Ties on seconds break toward
  /// the lower request id; a full tie loses to the incumbent (earlier
  /// offer).
  bool WouldRetainSlow(double service_seconds, uint64_t request_id) const;

  /// Offers a finished trace; the recorder keeps it only if it is an
  /// incident or lands in the slowest-K. Evictions follow: oldest incident
  /// first (FIFO ring), least-slow first (ties evict the higher request
  /// id). Must be called in a deterministic order (the service's reduce
  /// phase guarantees admission order).
  void Offer(RequestTrace trace);

  /// Retained traces in offer order (stable across thread counts).
  std::vector<const RequestTrace*> Snapshot() const;

  /// Deterministic JSON dump: config, stats, and every retained trace with
  /// its retention reasons and raw span records. No wall time anywhere.
  std::string ToJson() const;

  /// Chrome trace_event rendering: one lane (pid = session, tid = request)
  /// per retained trace, with process/thread metadata so Perfetto groups
  /// lanes per session and labels each request's outcome.
  std::string ToChromeTrace() const;

  /// Aligned text listing for the shell's `.blackbox`.
  std::string ReportText() const;

  /// Publishes server.flight_recorder.* counters/gauges (no-op on null).
  /// Idempotent.
  void PublishMetrics(MetricsRegistry* metrics) const;

  void Clear();

 private:
  /// Slowest-K ordering: more service seconds ranks higher; ties prefer
  /// the lower request id, then the earlier offer.
  struct SlowKey {
    double seconds = 0.0;
    uint64_t request_id = 0;
    uint64_t order = 0;
    bool operator<(const SlowKey& o) const {
      if (seconds != o.seconds) return seconds > o.seconds;
      if (request_id != o.request_id) return request_id < o.request_id;
      return order < o.order;
    }
  };

  struct Record {
    RequestTrace trace;
    bool incident = false;
    bool slow = false;
  };

  void DropIfUnreferenced(uint64_t order);

  FlightRecorderConfig config_;
  FlightRecorderStats stats_;
  uint64_t next_order_ = 0;
  std::map<uint64_t, Record> records_;  // offer order -> record
  std::deque<uint64_t> incident_fifo_;  // offer orders, oldest first
  std::set<SlowKey> slow_;              // slowest first
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_FLIGHT_RECORDER_H_
