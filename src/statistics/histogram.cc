#include "statistics/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace robustqo {
namespace stats {

EquiDepthHistogram::EquiDepthHistogram(const storage::Table& table,
                                       const std::string& column_name,
                                       size_t max_buckets)
    : column_name_(column_name), total_rows_(table.VisibleRowCount()) {
  RQO_CHECK(max_buckets >= 1);
  const storage::ColumnVector& col = table.column(column_name);
  RQO_CHECK_MSG(col.type() != storage::DataType::kString,
                "histograms require numeric-physical columns");

  if (total_rows_ == 0) return;

  // Only the latest-visible row versions feed the histogram; dead versions
  // of updated/deleted rows are physically present but not data.
  std::vector<double> values;
  values.reserve(static_cast<size_t>(total_rows_));
  if (storage::IsIntegerPhysical(col.type())) {
    for (uint64_t i = 0; i < table.num_rows(); ++i) {
      if (table.VisibleAt(i)) {
        values.push_back(static_cast<double>(col.Int64At(i)));
      }
    }
  } else {
    for (uint64_t i = 0; i < table.num_rows(); ++i) {
      if (table.VisibleAt(i)) values.push_back(col.DoubleAt(i));
    }
  }
  std::sort(values.begin(), values.end());
  const uint64_t n = values.size();

  // Equi-depth split with the constraint that equal values never straddle a
  // bucket boundary (runs of duplicates are kept together, as real systems
  // do, so EstimateEqualSelectivity has clean semantics).
  const uint64_t target_depth =
      std::max<uint64_t>(1, (n + max_buckets - 1) / max_buckets);
  size_t i = 0;
  while (i < n) {
    HistogramBucket bucket;
    bucket.lo = values[i];
    uint64_t rows = 0;
    uint64_t distinct = 0;
    double prev = NAN;
    while (i < n) {
      const double v = values[i];
      const bool new_value = rows == 0 || v != prev;
      if (rows >= target_depth && new_value) break;
      if (new_value) ++distinct;
      prev = v;
      ++rows;
      ++i;
    }
    bucket.hi = prev;
    bucket.row_count = rows;
    bucket.distinct_count = distinct;
    buckets_.push_back(bucket);
  }
}

double EquiDepthHistogram::BucketOverlapFraction(const HistogramBucket& bucket,
                                                 double lo, double hi) const {
  if (hi < bucket.lo || lo > bucket.hi) return 0.0;
  if (lo <= bucket.lo && hi >= bucket.hi) return 1.0;
  const double width = bucket.hi - bucket.lo;
  if (width <= 0.0) return 1.0;  // single-value bucket, already overlapping
  const double clip_lo = std::max(lo, bucket.lo);
  const double clip_hi = std::min(hi, bucket.hi);
  return std::max(0.0, (clip_hi - clip_lo) / width);
}

double EquiDepthHistogram::EstimateRangeSelectivity(
    std::optional<double> lo, std::optional<double> hi) const {
  if (total_rows_ == 0) return 0.0;
  const double lo_v = lo.value_or(-HUGE_VAL);
  const double hi_v = hi.value_or(HUGE_VAL);
  if (lo_v > hi_v) return 0.0;
  double rows = 0.0;
  for (const auto& bucket : buckets_) {
    rows += BucketOverlapFraction(bucket, lo_v, hi_v) *
            static_cast<double>(bucket.row_count);
  }
  return rows / static_cast<double>(total_rows_);
}

double EquiDepthHistogram::EstimateEqualSelectivity(double v) const {
  if (total_rows_ == 0) return 0.0;
  for (const auto& bucket : buckets_) {
    if (v >= bucket.lo && v <= bucket.hi) {
      if (bucket.distinct_count == 0) return 0.0;
      return static_cast<double>(bucket.row_count) /
             static_cast<double>(bucket.distinct_count) /
             static_cast<double>(total_rows_);
    }
  }
  return 0.0;
}

uint64_t EquiDepthHistogram::TotalDistinct() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.distinct_count;
  return total;
}

}  // namespace stats
}  // namespace robustqo
