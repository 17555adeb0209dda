// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Equi-depth histogram on one column. This models the "standard
// histogram-based estimation module" of the commercial DBMS the paper
// compares against (Section 6.1: ~250 buckets, each storing an attribute
// value plus row and distinct-value counters).

#ifndef ROBUSTQO_STATISTICS_HISTOGRAM_H_
#define ROBUSTQO_STATISTICS_HISTOGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/table.h"

namespace robustqo {
namespace stats {

/// One histogram bucket covering the key range [lo, hi].
struct HistogramBucket {
  double lo = 0.0;
  double hi = 0.0;
  uint64_t row_count = 0;
  uint64_t distinct_count = 0;
};

/// Equi-depth (equal-height) histogram over a numeric column.
class EquiDepthHistogram {
 public:
  /// Builds a histogram with at most `max_buckets` buckets over
  /// `table.column(column_name)` (must be numeric-physical).
  EquiDepthHistogram(const storage::Table& table,
                     const std::string& column_name, size_t max_buckets = 250);

  const std::string& column_name() const { return column_name_; }
  uint64_t total_rows() const { return total_rows_; }
  size_t num_buckets() const { return buckets_.size(); }
  const std::vector<HistogramBucket>& buckets() const { return buckets_; }

  /// Estimated fraction of rows with value in [lo, hi] (either bound open).
  /// Uses the uniform-spread assumption within buckets.
  double EstimateRangeSelectivity(std::optional<double> lo,
                                  std::optional<double> hi) const;

  /// Estimated fraction of rows equal to `v` (bucket rows / bucket
  /// distincts / total).
  double EstimateEqualSelectivity(double v) const;

  /// Sum over buckets of distinct counts (an upper bound on the column's
  /// distinct count — values never span buckets in this build).
  uint64_t TotalDistinct() const;

 private:
  // Fraction of `bucket`'s rows falling in [lo, hi] clipped to the bucket.
  double BucketOverlapFraction(const HistogramBucket& bucket, double lo,
                               double hi) const;

  std::string column_name_;
  uint64_t total_rows_ = 0;
  std::vector<HistogramBucket> buckets_;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_HISTOGRAM_H_
