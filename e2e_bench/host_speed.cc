#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace robustqo {
namespace e2e {
namespace {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

}  // namespace

double TimeReference() {
  const auto start = std::chrono::steady_clock::now();
  std::vector<uint64_t> values(1 << 16);
  uint64_t x = 88172645463325252ULL;  // xorshift64
  for (uint64_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  std::sort(values.begin(), values.end());
  std::unordered_map<uint64_t, uint64_t> sums;
  for (size_t i = 0; i < (1u << 14); ++i) sums[values[i * 3] >> 20] += i;
  volatile uint64_t sink = sums.size() + values[12345];
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void HostSpeed::Sample(size_t position) {
  samples_.emplace_back(position, TimeReference());
}

double HostSpeed::Scale(size_t position) const {
  if (samples_.empty()) return 1.0;
  // The window of kWindow consecutive samples centred on `position`.
  const auto at = std::lower_bound(
      samples_.begin(), samples_.end(), position,
      [](const std::pair<size_t, double>& s, size_t p) { return s.first < p; });
  const size_t n = std::min(kWindow, samples_.size());
  const size_t centre = static_cast<size_t>(at - samples_.begin());
  const size_t first = std::min(centre - std::min(centre, n / 2), samples_.size() - n);
  std::vector<double> window;
  for (size_t i = first; i < first + n; ++i) window.push_back(samples_[i].second);
  return 1e-3 * kReferenceMs / Median(window);
}

double HostSpeed::MedianMs() const {
  std::vector<double> seconds;
  for (const auto& sample : samples_) seconds.push_back(sample.second);
  return 1e3 * Median(seconds);
}

}  // namespace e2e
}  // namespace robustqo
