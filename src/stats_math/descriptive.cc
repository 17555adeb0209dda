#include "stats_math/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace robustqo {
namespace math {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double PopulationVariance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double SampleVariance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double PopulationStdDev(const std::vector<double>& xs) {
  return std::sqrt(PopulationVariance(xs));
}

double Percentile(std::vector<double> xs, double q) {
  RQO_CHECK(!xs.empty());
  RQO_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

Summary Summarize(const std::vector<double>& xs) {
  RQO_CHECK(!xs.empty());
  Summary s;
  s.mean = Mean(xs);
  s.std_dev = PopulationStdDev(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.p25 = Percentile(xs, 0.25);
  s.median = Percentile(xs, 0.50);
  s.p75 = Percentile(xs, 0.75);
  return s;
}

}  // namespace math
}  // namespace robustqo
