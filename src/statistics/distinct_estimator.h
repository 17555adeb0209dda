// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Distinct-value estimation from a random sample (paper Section 3.5:
// "Incorporating other operators" — GROUP BY output size depends on the
// number of distinct attribute combinations, and known distinct-value
// estimators, e.g. Haas et al. [13], adapt directly to our samples).
//
// Implemented estimators:
//  * GEE  (Charikar et al.): sqrt(N/n) * f1 + sum_{i>=2} f_i — the
//    guaranteed-error estimator; our default.
//  * Chao: d + f1^2 / (2 f2) — a lower-bound-style estimator, good when
//    the frequency distribution is not too skewed.
//  * Naive: d * N / n capped at N — scale-up of the observed distinct
//    count; included as the baseline the literature improves on.

#ifndef ROBUSTQO_STATISTICS_DISTINCT_ESTIMATOR_H_
#define ROBUSTQO_STATISTICS_DISTINCT_ESTIMATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "statistics/sample.h"
#include "util/status.h"

namespace robustqo {
namespace stats {

/// Which distinct-value estimator to apply.
enum class DistinctMethod {
  kGee,
  kChao,
  kNaiveScaleUp,
};

/// Frequency statistics of a sample: d = distinct values seen, f[i] =
/// number of values seen exactly i times (f[0] unused).
struct SampleFrequencyProfile {
  uint64_t sample_size = 0;
  uint64_t distinct_in_sample = 0;
  std::vector<uint64_t> frequency_of_frequencies;  // index 1..max

  uint64_t f(size_t i) const {
    return i < frequency_of_frequencies.size()
               ? frequency_of_frequencies[i]
               : 0;
  }
};

/// Builds the frequency profile of integer-physical sample values.
SampleFrequencyProfile ProfileValues(const std::vector<int64_t>& values);

/// Builds the profile of column `column` of `sample`, which must be
/// integer-physical (dates/ints; doubles are bucketized by bit pattern).
Result<SampleFrequencyProfile> ProfileSampleColumn(const TableSample& sample,
                                                   const std::string& column);

/// Estimates the number of distinct values in a population of
/// `population_size` rows given a profile of an n-row uniform sample,
/// which may exceed the population when drawn with replacement. The result
/// is clamped to [distinct_in_sample, population_size].
double EstimateDistinct(const SampleFrequencyProfile& profile,
                        uint64_t population_size,
                        DistinctMethod method = DistinctMethod::kGee);

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_DISTINCT_ESTIMATOR_H_
