// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Descriptive statistics over samples of doubles. The experiment harness
// reports mean and standard deviation of query execution time — the paper's
// predictability metric (Section 5.2) — through these helpers.

#ifndef ROBUSTQO_STATS_MATH_DESCRIPTIVE_H_
#define ROBUSTQO_STATS_MATH_DESCRIPTIVE_H_

#include <vector>

namespace robustqo {
namespace math {

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Population variance (divides by N); 0 for fewer than 1 element.
double PopulationVariance(const std::vector<double>& xs);

/// Sample variance (divides by N-1); 0 for fewer than 2 elements.
double SampleVariance(const std::vector<double>& xs);

/// sqrt of the population variance.
double PopulationStdDev(const std::vector<double>& xs);

/// q-th percentile (q in [0,1]) by linear interpolation between closest
/// ranks; requires a non-empty vector (copied and sorted internally).
double Percentile(std::vector<double> xs, double q);

/// Five-number-plus summary of a sample.
struct Summary {
  double mean = 0.0;
  double std_dev = 0.0;  // population
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

/// Computes a Summary; requires non-empty input.
Summary Summarize(const std::vector<double>& xs);

}  // namespace math
}  // namespace robustqo

#endif  // ROBUSTQO_STATS_MATH_DESCRIPTIVE_H_
