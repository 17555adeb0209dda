// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Machine-readable exporters for the obs layer:
//
//   * ToOpenMetrics — Prometheus/OpenMetrics text exposition of a
//     MetricsRegistry snapshot (counters -> `_total`, gauges, histograms
//     -> cumulative `_bucket{le=...}` series, quantile sketches ->
//     summaries), ready for a scrape endpoint or a file target.
//   * ToChromeTrace — Chrome `trace_event` JSON of a Tracer's records,
//     loadable in Perfetto / chrome://tracing; span begin/end become B/E
//     pairs, instantaneous events become `i`.
//
// Both renderings are deterministic: metric families sort by name, trace
// timestamps default to the tracer's logical clock (one tick = one
// microsecond on the trace timeline), and all numbers use fixed formats —
// so exports are byte-identical across same-seed runs at any thread count
// and can be pinned as golden files (tests/golden/, validated by
// scripts/check_openmetrics.py and scripts/check_trace_json.py).
//
// Like the obs classes, both exporters always work when called directly.

#ifndef ROBUSTQO_OBS_EXPORTERS_H_
#define ROBUSTQO_OBS_EXPORTERS_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace robustqo {
namespace obs {

/// Sanitizes a metric name for OpenMetrics: every character outside
/// [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_' prefix. The
/// registry's dotted names ("db.queries_planned") map to the conventional
/// underscore form.
std::string OpenMetricsName(const std::string& name);

/// Escapes a label value for OpenMetrics exposition (backslash, double
/// quote, newline).
std::string OpenMetricsLabelEscape(const std::string& value);

/// Renders `registry` in OpenMetrics text format. Families are emitted in
/// a fixed section order (counters, gauges, histograms, summaries), each
/// sorted by name and prefixed with `prefix`; the exposition ends with the
/// required `# EOF` line.
std::string ToOpenMetrics(const MetricsRegistry& registry,
                          const std::string& prefix = "rqo_");

/// Renders trace records as a Chrome `trace_event` JSON array. Span
/// begin/end pairs become "B"/"E" events (the end inherits the begin's
/// name and category, as the format requires) carrying the span id (as
/// hex "id"); instantaneous records become thread-scoped "i" events;
/// attributes become `args`. With `use_wall_time` false (the default)
/// timestamps are the logical clock, so the export is byte-identical
/// across same-seed runs; pass true for human-facing dumps with real
/// durations.
std::string ToChromeTrace(const std::vector<TraceEvent>& events,
                          bool use_wall_time = false);

/// One track of a multi-lane Chrome trace: a record stream rendered under
/// its own (pid, tid) with human-readable process/thread names. The
/// fingerprint ledger exports one lane per exemplar request (pid =
/// session, tid = request id) so Perfetto groups request lanes per session.
struct TraceLane {
  uint64_t pid = 1;
  uint64_t tid = 1;
  /// Emitted once per distinct pid as a process_name metadata record
  /// (the first lane with that pid wins).
  std::string process_name;
  std::string thread_name;
  std::vector<TraceEvent> events;
};

/// Multi-lane Chrome trace rendering: process/thread metadata ("M")
/// records first, then each lane's events in order, rendered as above.
/// scripts/check_trace_json.py uses the span ids to validate span-tree
/// well-formedness per track.
std::string ToChromeTrace(const std::vector<TraceLane>& lanes,
                          bool use_wall_time = false);

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_EXPORTERS_H_
