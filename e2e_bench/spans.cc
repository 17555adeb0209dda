#include "spans.h"

#include <chrono>
#include <cstdio>

namespace robustqo {
namespace e2e {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanRecorder::Add(const char* layer, const char* call,
                           int64_t start_ns, int64_t end_ns, uint32_t parent,
                           uint64_t request, uint32_t process, uint32_t lane) {
  if (!enabled_) return 0;
  Span span;
  span.layer = layer;
  span.call = call;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.process = process;
  span.lane = lane;
  spans_.push_back(span);
  return span.id;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
               "{\"name\":\"service run\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
               "{\"name\":\"layer replay\"}}");
  for (const Span& s : spans_) {
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"request\":%llu}}",
                 s.call, s.layer,
                 1e-3 * static_cast<double>(s.start_ns - origin), s.micros(),
                 s.process, s.lane, s.id, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace e2e
}  // namespace robustqo
