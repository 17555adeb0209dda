// Host-speed reference for the end-to-end wall-time metrics.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 15-25% between runs of the same code, and by up to 2x over half an
// hour, with the other tenants' load. Between batches, on the calling
// thread while the workers are idle, the benchmark times a fixed
// reference computation that calls no engine code: it fills, sorts and
// hashes a few hundred KiB of integers, the kind of work a query engine
// spends its time on. Each wall time is then rescaled to a host on which
// the reference takes kReferenceMs, using the reference timings taken
// nearest to it. Host drift slows the reference and the engine alike and
// cancels; a change to the engine moves only the engine's side.

#ifndef ROBUSTQO_E2E_BENCH_HOST_SPEED_H_
#define ROBUSTQO_E2E_BENCH_HOST_SPEED_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace robustqo {
namespace e2e {

/// The reference computation's wall time on the host the rescaled figures
/// describe: its median on the 4-vCPU Xeon VM the README's figures were
/// taken on.
constexpr double kReferenceMs = 8.0;

/// Runs the reference computation once; returns its wall seconds.
double TimeReference();

/// Reference timings taken through one run, each tagged with a position
/// (the number of batches completed when it was taken).
class HostSpeed {
 public:
  /// Times the reference once at `position`. Positions must not decrease.
  void Sample(size_t position);

  /// Reference-host seconds per measured second at `position`: kReferenceMs
  /// over the median of the kWindow reference timings nearest to it. 1 with
  /// no samples.
  double Scale(size_t position) const;

  /// Median of every reference timing, in ms.
  double MedianMs() const;

  size_t samples() const { return samples_.size(); }

 private:
  static constexpr size_t kWindow = 9;
  std::vector<std::pair<size_t, double>> samples_;  ///< (position, seconds)
};

}  // namespace e2e
}  // namespace robustqo

#endif  // ROBUSTQO_E2E_BENCH_HOST_SPEED_H_
