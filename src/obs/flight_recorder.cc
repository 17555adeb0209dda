#include "obs/flight_recorder.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/exporters.h"
#include "util/string_util.h"

namespace robustqo {
namespace obs {

namespace {

/// The retention reasons of a record as a JSON array fragment.
std::string ReasonsJson(bool incident, bool slow) {
  std::string out = "[";
  if (incident) out += "\"incident\"";
  if (slow) {
    if (incident) out += ",";
    out += "\"slow\"";
  }
  out += "]";
  return out;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {}

bool FlightRecorder::WouldRetainSlow(double service_seconds,
                                     uint64_t request_id) const {
  if (config_.slowest_k == 0) return false;
  if (slow_.size() < config_.slowest_k) return true;
  // A candidate's offer order would be the largest so far, so it loses a
  // full tie to the incumbent — mirror that with the maximal order.
  const SlowKey candidate{service_seconds, request_id, UINT64_MAX};
  return candidate < *std::prev(slow_.end());
}

void FlightRecorder::DropIfUnreferenced(uint64_t order) {
  auto it = records_.find(order);
  if (it != records_.end() && !it->second.incident && !it->second.slow) {
    records_.erase(it);
  }
}

void FlightRecorder::Offer(RequestTrace trace) {
  ++stats_.offered;
  const bool incident = config_.incident_capacity > 0 && trace.IsIncident();
  const bool slow_candidate = config_.slowest_k > 0;
  if (!incident && !slow_candidate) return;

  const uint64_t order = next_order_++;
  const double seconds = trace.service_seconds;
  const uint64_t request_id = trace.request_id;
  Record record;
  record.trace = std::move(trace);

  if (incident) {
    record.incident = true;
    ++stats_.retained_incident;
  }
  records_.emplace(order, std::move(record));

  if (incident) {
    incident_fifo_.push_back(order);
    if (incident_fifo_.size() > config_.incident_capacity) {
      const uint64_t oldest = incident_fifo_.front();
      incident_fifo_.pop_front();
      records_.at(oldest).incident = false;
      ++stats_.evicted_incident;
      DropIfUnreferenced(oldest);
    }
  }

  if (slow_candidate) {
    slow_.insert({seconds, request_id, order});
    if (slow_.size() > config_.slowest_k) {
      const auto worst = std::prev(slow_.end());
      const uint64_t displaced = worst->order;
      slow_.erase(worst);
      if (displaced != order) {
        // The new trace bumped an incumbent out of the slowest-K.
        records_.at(order).slow = true;
        ++stats_.retained_slow;
        records_.at(displaced).slow = false;
        ++stats_.evicted_slow;
        DropIfUnreferenced(displaced);
      }
      // Otherwise the new trace itself lost — it was never retained-slow.
    } else {
      records_.at(order).slow = true;
      ++stats_.retained_slow;
    }
  }
  DropIfUnreferenced(order);
}

std::vector<const RequestTrace*> FlightRecorder::Snapshot() const {
  std::vector<const RequestTrace*> out;
  out.reserve(records_.size());
  for (const auto& [order, record] : records_) {
    (void)order;
    out.push_back(&record.trace);
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  std::string out = StrPrintf(
      "{\"flight_recorder\":{\"incident_capacity\":%zu,\"slowest_k\":%zu,"
      "\"stats\":{\"offered\":%llu,\"retained_incident\":%llu,"
      "\"retained_slow\":%llu,\"evicted_incident\":%llu,"
      "\"evicted_slow\":%llu},\"records\":[",
      config_.incident_capacity, config_.slowest_k,
      static_cast<unsigned long long>(stats_.offered),
      static_cast<unsigned long long>(stats_.retained_incident),
      static_cast<unsigned long long>(stats_.retained_slow),
      static_cast<unsigned long long>(stats_.evicted_incident),
      static_cast<unsigned long long>(stats_.evicted_slow));
  bool first = true;
  for (const auto& [order, record] : records_) {
    (void)order;
    const RequestTrace& t = record.trace;
    if (!first) out += ",";
    first = false;
    out += StrPrintf(
        "{\"request_id\":%llu,\"session\":%llu,\"session_label\":\"%s\","
        "\"ticket\":%llu,\"fingerprint\":\"%s\",\"status\":\"%s\","
        "\"failed\":%s,\"governor_tripped\":%s,\"fault_fires\":%llu,"
        "\"cache\":\"%s\",\"waves_waited\":%llu,"
        "\"queue_wait_seconds\":%.6f,\"service_seconds\":%.6f,"
        "\"retained\":%s,\"events\":",
        static_cast<unsigned long long>(t.request_id),
        static_cast<unsigned long long>(t.session_id),
        JsonEscape(t.session_label).c_str(),
        static_cast<unsigned long long>(t.ticket),
        FingerprintHex(t.fingerprint).c_str(), JsonEscape(t.status).c_str(),
        t.failed ? "true" : "false", t.governor_tripped ? "true" : "false",
        static_cast<unsigned long long>(t.fault_fires),
        JsonEscape(t.cache_outcome).c_str(),
        static_cast<unsigned long long>(t.waves_waited), t.queue_wait_seconds,
        t.service_seconds, ReasonsJson(record.incident, record.slow).c_str());
    out += TraceEventsToJson(t.events);
    out += "}";
  }
  out += "]}}";
  return out;
}

std::string FlightRecorder::ToChromeTrace() const {
  // One lane per retained request, grouped by session pid. Lanes are
  // emitted in (session, request) order so the export never depends on
  // retention bookkeeping order.
  std::vector<TraceLane> lanes;
  lanes.reserve(records_.size());
  for (const auto& [order, record] : records_) {
    (void)order;
    const RequestTrace& t = record.trace;
    TraceLane lane;
    lane.pid = t.session_id;
    lane.tid = t.request_id;
    lane.process_name =
        t.session_label.empty()
            ? StrPrintf("session %llu",
                        static_cast<unsigned long long>(t.session_id))
            : t.session_label;
    lane.thread_name =
        StrPrintf("request %llu [%s]",
                  static_cast<unsigned long long>(t.request_id),
                  t.status.c_str());
    lane.events = t.events;
    lanes.push_back(std::move(lane));
  }
  std::sort(lanes.begin(), lanes.end(),
            [](const TraceLane& a, const TraceLane& b) {
              return std::tie(a.pid, a.tid) < std::tie(b.pid, b.tid);
            });
  return obs::ToChromeTrace(lanes);
}

std::string FlightRecorder::ReportText() const {
  std::string out = StrPrintf(
      "flight recorder: %zu retained (offered=%llu incidents=%llu "
      "slow=%llu evicted=%llu)\n",
      records_.size(), static_cast<unsigned long long>(stats_.offered),
      static_cast<unsigned long long>(stats_.retained_incident),
      static_cast<unsigned long long>(stats_.retained_slow),
      static_cast<unsigned long long>(stats_.evicted_incident +
                                      stats_.evicted_slow));
  for (const auto& [order, record] : records_) {
    (void)order;
    const RequestTrace& t = record.trace;
    std::string reasons;
    if (record.incident) reasons += "incident";
    if (record.slow) reasons += reasons.empty() ? "slow" : ",slow";
    out += StrPrintf(
        "  [%-13s] req=%-5llu session=%llu (%s) status=%-18s cache=%-13s "
        "waves=%llu queue_wait=%.6f service=%.6f faults=%llu\n",
        reasons.c_str(), static_cast<unsigned long long>(t.request_id),
        static_cast<unsigned long long>(t.session_id),
        t.session_label.c_str(), t.status.c_str(),
        t.cache_outcome.empty() ? "-" : t.cache_outcome.c_str(),
        static_cast<unsigned long long>(t.waves_waited), t.queue_wait_seconds,
        t.service_seconds, static_cast<unsigned long long>(t.fault_fires));
  }
  return out;
}

void FlightRecorder::PublishMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const auto sync = [metrics](const char* name, uint64_t value) {
    Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("server.flight_recorder.offered", stats_.offered);
  sync("server.flight_recorder.retained.incident", stats_.retained_incident);
  sync("server.flight_recorder.retained.slow", stats_.retained_slow);
  sync("server.flight_recorder.evicted.incident", stats_.evicted_incident);
  sync("server.flight_recorder.evicted.slow", stats_.evicted_slow);
  metrics->GetGauge("server.flight_recorder.size")
      ->Set(static_cast<double>(records_.size()));
}

void FlightRecorder::Clear() {
  records_.clear();
  incident_fifo_.clear();
  slow_.clear();
  stats_ = FlightRecorderStats{};
  next_order_ = 0;
}

}  // namespace obs
}  // namespace robustqo
