// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Structured trace recorder: typed span/event records ordered by a
// deterministic logical clock (a per-tracer sequence number), with wall
// time carried alongside for humans. Spans nest via an explicit stack, so
// the exec spans of one query form a tree isomorphic to the plan tree —
// which is exactly what core::PlanAnnotator exploits to merge actual row
// counts back onto the plan for EXPLAIN ANALYZE.
//
// The tracer is a runtime-nullable sink: instrumented code holds a
// `Tracer*` that is usually nullptr, and every call site tests it first
// (`if (tracer != nullptr)`), so a detached tracer costs one pointer test.

#ifndef ROBUSTQO_OBS_TRACE_H_
#define ROBUSTQO_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace robustqo {
namespace obs {

/// Ordered attribute list; values are preformatted strings so rendering is
/// trivially deterministic.
using TraceAttrs = std::vector<std::pair<std::string, std::string>>;

/// Attribute-value formatting helpers (fixed formats keep JSON stable).
std::string AttrU64(uint64_t value);
std::string AttrF(double value);
/// A 64-bit statement/predicate fingerprint as 16 lowercase hex digits —
/// the one spelling traces, reports and JSON key fingerprints by.
std::string FingerprintHex(uint64_t fingerprint);

enum class TraceKind {
  kSpanBegin,  ///< opens span `span_id` under `parent_id`
  kSpanEnd,    ///< closes span `span_id`, carrying its result attributes
  kEvent,      ///< instantaneous event inside the current span
};

/// One trace record.
struct TraceEvent {
  uint64_t seq = 0;        ///< logical clock: unique, strictly increasing
  TraceKind kind = TraceKind::kEvent;
  uint64_t span_id = 0;    ///< span opened/closed, or enclosing span (0=root)
  uint64_t parent_id = 0;  ///< enclosing span at record time (0 = root)
  std::string category;    ///< subsystem: "optimizer", "estimator", "exec"
  std::string name;        ///< e.g. "estimate", "HashJoin(a = b)"
  double wall_micros = 0;  ///< real time since tracer creation (non-deterministic)
  TraceAttrs attrs;
};

/// Append-only trace recorder. Not thread-safe; use one per query (or per
/// worker) and merge offline.
class Tracer {
 public:
  /// `clock` feeds the wall_micros column only (logical order never depends
  /// on it); nullptr means the process monotonic clock.
  explicit Tracer(const Clock* clock = nullptr);

  /// Opens a span and returns its id (ids start at 1; 0 means "root").
  uint64_t BeginSpan(std::string category, std::string name,
                     TraceAttrs attrs = {});

  /// Closes `span_id`, attaching result attributes (e.g. rows produced).
  /// Spans must close in LIFO order.
  void EndSpan(uint64_t span_id, TraceAttrs attrs = {});

  /// Records an instantaneous event inside the innermost open span.
  void Event(std::string category, std::string name, TraceAttrs attrs = {});

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Moves the records out, leaving the tracer cleared (logical clock and
  /// span ids reset). For handing a finished per-request trace to a
  /// retention buffer without copying.
  std::vector<TraceEvent> ReleaseEvents();

  /// Next logical-clock value (== number of records so far).
  uint64_t logical_clock() const { return next_seq_; }

  /// Innermost open span id (0 when none).
  uint64_t current_span() const {
    return stack_.empty() ? 0 : stack_.back();
  }

  /// Drops all records and resets the logical clock (span ids keep
  /// increasing so ids stay unique across a tracer's lifetime).
  void Clear();

 private:
  TraceEvent MakeRecord(TraceKind kind, std::string category,
                        std::string name, TraceAttrs attrs);

  Stopwatch wall_;
  std::vector<TraceEvent> events_;
  std::vector<uint64_t> stack_;  ///< open span ids, innermost last
  uint64_t next_seq_ = 0;
  uint64_t next_span_id_ = 1;
};

/// RAII span: begins on construction (when the tracer is non-null), ends on
/// destruction with any attributes added in between.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string category, std::string name,
            TraceAttrs attrs = {});
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Adds an attribute to the span-end record.
  void Attr(std::string key, std::string value);

  uint64_t span_id() const { return span_id_; }

 private:
  Tracer* tracer_;
  uint64_t span_id_ = 0;
  TraceAttrs end_attrs_;
};

}  // namespace obs
}  // namespace robustqo

#endif  // ROBUSTQO_OBS_TRACE_H_
