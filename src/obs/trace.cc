#include "obs/trace.h"

#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace obs {

std::string AttrU64(uint64_t value) {
  return StrPrintf("%llu", static_cast<unsigned long long>(value));
}

std::string AttrF(double value) { return StrPrintf("%.9g", value); }

std::string FingerprintHex(uint64_t fingerprint) {
  return StrPrintf("%016llx", static_cast<unsigned long long>(fingerprint));
}

Tracer::Tracer(const Clock* clock) : wall_(clock) {
  // Per-request tracers record a dozen-odd events in a tight serving
  // loop; one up-front allocation beats the doubling-growth churn.
  events_.reserve(32);
}

TraceEvent Tracer::MakeRecord(TraceKind kind, std::string category,
                              std::string name, TraceAttrs attrs) {
  TraceEvent record;
  record.seq = next_seq_++;
  record.kind = kind;
  record.parent_id = current_span();
  record.category = std::move(category);
  record.name = std::move(name);
  record.wall_micros = wall_.ElapsedMicros();
  record.attrs = std::move(attrs);
  return record;
}

uint64_t Tracer::BeginSpan(std::string category, std::string name,
                           TraceAttrs attrs) {
  TraceEvent record = MakeRecord(TraceKind::kSpanBegin, std::move(category),
                                 std::move(name), std::move(attrs));
  const uint64_t id = next_span_id_++;
  record.span_id = id;
  events_.push_back(std::move(record));
  stack_.push_back(id);
  return id;
}

void Tracer::EndSpan(uint64_t span_id, TraceAttrs attrs) {
  RQO_CHECK_MSG(!stack_.empty() && stack_.back() == span_id,
                "spans must end in LIFO order");
  stack_.pop_back();
  TraceEvent record =
      MakeRecord(TraceKind::kSpanEnd, std::string(), std::string(),
                 std::move(attrs));
  record.span_id = span_id;
  events_.push_back(std::move(record));
}

void Tracer::Event(std::string category, std::string name, TraceAttrs attrs) {
  TraceEvent record = MakeRecord(TraceKind::kEvent, std::move(category),
                                 std::move(name), std::move(attrs));
  record.span_id = record.parent_id;
  events_.push_back(std::move(record));
}

void Tracer::Clear() {
  events_.clear();
  stack_.clear();
  next_seq_ = 0;
}

std::vector<TraceEvent> Tracer::ReleaseEvents() {
  std::vector<TraceEvent> out = std::move(events_);
  events_.clear();
  stack_.clear();
  next_seq_ = 0;
  next_span_id_ = 1;
  return out;
}

SpanGuard::SpanGuard(Tracer* tracer, std::string category, std::string name,
                     TraceAttrs attrs)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    span_id_ = tracer_->BeginSpan(std::move(category), std::move(name),
                                  std::move(attrs));
  }
}

SpanGuard::~SpanGuard() {
  if (tracer_ != nullptr) tracer_->EndSpan(span_id_, std::move(end_attrs_));
}

void SpanGuard::Attr(std::string key, std::string value) {
  if (tracer_ != nullptr) {
    end_attrs_.emplace_back(std::move(key), std::move(value));
  }
}

}  // namespace obs
}  // namespace robustqo
