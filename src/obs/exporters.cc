#include "obs/exporters.h"

#include <cmath>
#include <map>

#include "util/string_util.h"

namespace robustqo {
namespace obs {

namespace {

// OpenMetrics sample values: fixed precision, spec spellings for the
// non-finite values.
std::string OmValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  return StrPrintf("%.9g", value);
}

std::string OmValue(uint64_t value) {
  return StrPrintf("%llu", static_cast<unsigned long long>(value));
}

void EmitFamily(std::string* out, const std::string& name, const char* type) {
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string OpenMetricsLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string ToOpenMetrics(const MetricsRegistry& registry,
                          const std::string& prefix) {
  std::string out;
  for (const auto& [name, c] : registry.counters()) {
    const std::string om = prefix + OpenMetricsName(name);
    EmitFamily(&out, om, "counter");
    out.append(om).append("_total ").append(OmValue(c->value())).append("\n");
  }
  for (const auto& [name, g] : registry.gauges()) {
    const std::string om = prefix + OpenMetricsName(name);
    EmitFamily(&out, om, "gauge");
    out.append(om).append(" ").append(OmValue(g->value())).append("\n");
  }
  for (const auto& [name, h] : registry.histograms()) {
    const std::string om = prefix + OpenMetricsName(name);
    EmitFamily(&out, om, "histogram");
    uint64_t cumulative = 0;
    const std::vector<double>& bounds = h->upper_bounds();
    const std::vector<uint64_t>& counts = h->bucket_counts();
    for (size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      out.append(om).append("_bucket{le=\"").append(OmValue(bounds[i]));
      out.append("\"} ").append(OmValue(cumulative)).append("\n");
    }
    cumulative += counts.back();  // the implicit overflow bucket
    out.append(om).append("_bucket{le=\"+Inf\"} ").append(OmValue(cumulative));
    out += "\n";
    out.append(om).append("_sum ").append(OmValue(h->sum())).append("\n");
    out.append(om).append("_count ").append(OmValue(h->count())).append("\n");
    // The dedicated NaN bucket rides as a sibling counter family so the
    // histogram series stay internally consistent (+Inf bucket == count).
    EmitFamily(&out, om + "_nan", "counter");
    out.append(om).append("_nan_total ").append(OmValue(h->nan_count()));
    out += "\n";
  }
  for (const auto& [name, s] : registry.sketches()) {
    const std::string om = prefix + OpenMetricsName(name);
    EmitFamily(&out, om, "summary");
    for (double q : {0.5, 0.9, 0.99}) {
      out.append(om).append("{quantile=\"").append(OmValue(q));
      out.append("\"} ").append(OmValue(s->Quantile(q))).append("\n");
    }
    out.append(om).append("_sum ").append(OmValue(s->ApproxSum()));
    out += "\n";
    out.append(om).append("_count ").append(OmValue(s->count())).append("\n");
    EmitFamily(&out, om + "_nan", "counter");
    out.append(om).append("_nan_total ").append(OmValue(s->nan_count()));
    out += "\n";
  }
  out += "# EOF\n";
  return out;
}

namespace {

/// Renders one record stream under (pid, tid). Span ends carry no
/// name/category of their own; the format wants the matching "E" to repeat
/// the "B"'s, so they are remembered per span id. The span id rides along
/// on B/E records, so scripts/check_trace_json.py can validate the span
/// tree of each track.
void AppendChromeEvents(std::string* out, bool* first,
                        const std::vector<TraceEvent>& events, uint64_t pid,
                        uint64_t tid, bool use_wall_time) {
  std::map<uint64_t, std::pair<std::string, std::string>> span_names;
  for (const TraceEvent& e : events) {
    const char* phase = "i";
    std::string name = e.name;
    std::string category = e.category.empty() ? "trace" : e.category;
    if (e.kind == TraceKind::kSpanBegin) {
      phase = "B";
      span_names[e.span_id] = {name, category};
    } else if (e.kind == TraceKind::kSpanEnd) {
      phase = "E";
      const auto it = span_names.find(e.span_id);
      if (it != span_names.end()) {
        name = it->second.first;
        category = it->second.second;
      }
    }
    if (!*first) *out += ",";
    *first = false;
    out->append("{\"name\":\"").append(JsonEscape(name)).append("\"");
    out->append(",\"cat\":\"").append(JsonEscape(category)).append("\"");
    *out += StrPrintf(",\"ph\":\"%s\"", phase);
    // One logical-clock tick renders as one microsecond on the timeline.
    if (use_wall_time) {
      *out += StrPrintf(",\"ts\":%.3f", e.wall_micros);
    } else {
      *out += StrPrintf(",\"ts\":%llu", static_cast<unsigned long long>(e.seq));
    }
    *out += StrPrintf(",\"pid\":%llu,\"tid\":%llu",
                      static_cast<unsigned long long>(pid),
                      static_cast<unsigned long long>(tid));
    if (e.kind != TraceKind::kEvent) {
      *out += StrPrintf(",\"id\":\"0x%llx\"",
                        static_cast<unsigned long long>(e.span_id));
    }
    if (e.kind == TraceKind::kEvent) *out += ",\"s\":\"t\"";
    if (!e.attrs.empty()) {
      *out += ",\"args\":{";
      for (size_t a = 0; a < e.attrs.size(); ++a) {
        if (a > 0) *out += ",";
        *out += "\"";
        *out += JsonEscape(e.attrs[a].first);
        *out += "\":\"";
        *out += JsonEscape(e.attrs[a].second);
        *out += "\"";
      }
      *out += "}";
    }
    *out += "}";
  }
}

/// A process_name / thread_name metadata record.
void AppendChromeMetadata(std::string* out, bool* first, const char* kind,
                          uint64_t pid, uint64_t tid,
                          const std::string& value) {
  if (!*first) *out += ",";
  *first = false;
  *out += StrPrintf(
      "{\"name\":\"%s\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,"
      "\"pid\":%llu,\"tid\":%llu,\"args\":{\"name\":\"%s\"}}",
      kind, static_cast<unsigned long long>(pid),
      static_cast<unsigned long long>(tid), JsonEscape(value).c_str());
}

}  // namespace

std::string ToChromeTrace(const std::vector<TraceEvent>& events,
                          bool use_wall_time) {
  std::string out = "[";
  bool first = true;
  AppendChromeEvents(&out, &first, events, /*pid=*/1, /*tid=*/1,
                     use_wall_time);
  out += "]";
  return out;
}

std::string ToChromeTrace(const std::vector<TraceLane>& lanes,
                          bool use_wall_time) {
  std::string out = "[";
  bool first = true;
  // Metadata first: one process_name per distinct pid (first lane wins),
  // then a thread_name per lane.
  std::map<uint64_t, bool> named_pids;
  for (const TraceLane& lane : lanes) {
    if (!lane.process_name.empty() && !named_pids[lane.pid]) {
      named_pids[lane.pid] = true;
      AppendChromeMetadata(&out, &first, "process_name", lane.pid, 0,
                           lane.process_name);
    }
    if (!lane.thread_name.empty()) {
      AppendChromeMetadata(&out, &first, "thread_name", lane.pid, lane.tid,
                           lane.thread_name);
    }
  }
  for (const TraceLane& lane : lanes) {
    AppendChromeEvents(&out, &first, lane.events, lane.pid, lane.tid,
                       use_wall_time);
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace robustqo
