// In-memory span recording for the traced run.
//
// A span is one timed call into a layer: its layer and call name, wall
// start and end (steady clock), the span that caused it, and the request
// it served. Spans stay in memory and are written out once, as a Chrome
// trace (chrome://tracing, Perfetto), when the run ends. A recorder built
// with `enabled == false` reads no clock and stores nothing, which is how
// the benchmark measures what recording itself costs.

#ifndef ROBUSTQO_E2E_BENCH_SPANS_H_
#define ROBUSTQO_E2E_BENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace robustqo {
namespace e2e {

struct Span {
  const char* layer = "";  ///< src/ module the call belongs to
  const char* call = "";   ///< the public call timed
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;       ///< 1-based
  uint32_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request id (0 for batch- and setup-level spans)
  uint32_t process = 0;  ///< trace process: 1 = service run, 2 = layer replay
  uint32_t lane = 0;     ///< trace thread lane

  double micros() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

/// Nanoseconds on the steady clock.
int64_t NowNanos();

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Clock reading when enabled, else 0.
  int64_t Mark() const { return enabled_ ? NowNanos() : 0; }

  /// Records a finished span; returns its id (0 when disabled).
  uint32_t Add(const char* layer, const char* call, int64_t start_ns,
               int64_t end_ns, uint32_t parent, uint64_t request,
               uint32_t process, uint32_t lane = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome-trace JSON; false on an I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace e2e
}  // namespace robustqo

#endif  // ROBUSTQO_E2E_BENCH_SPANS_H_
