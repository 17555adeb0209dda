#include "statistics/distinct_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>


namespace robustqo {
namespace stats {

SampleFrequencyProfile ProfileValues(const std::vector<int64_t>& values) {
  SampleFrequencyProfile profile;
  profile.sample_size = values.size();
  std::unordered_map<int64_t, uint64_t> counts;
  counts.reserve(values.size() * 2);
  for (int64_t v : values) ++counts[v];
  profile.distinct_in_sample = counts.size();
  uint64_t max_count = 0;
  for (const auto& [value, count] : counts) {
    max_count = std::max(max_count, count);
  }
  profile.frequency_of_frequencies.assign(max_count + 1, 0);
  for (const auto& [value, count] : counts) {
    ++profile.frequency_of_frequencies[count];
  }
  return profile;
}

Result<SampleFrequencyProfile> ProfileSampleColumn(const TableSample& sample,
                                                   const std::string& column) {
  const storage::Table& rows = sample.rows();
  auto idx = rows.schema().ColumnIndex(column);
  if (!idx.ok()) return idx.status();
  const storage::ColumnVector& col = rows.column(idx.value());
  std::vector<int64_t> values;
  values.reserve(rows.num_rows());
  for (storage::Rid r = 0; r < rows.num_rows(); ++r) {
    if (storage::IsIntegerPhysical(col.type())) {
      values.push_back(col.Int64At(r));
    } else if (col.type() == storage::DataType::kDouble) {
      // Bit-pattern identity: exact-equality distinctness for doubles.
      const double d = col.DoubleAt(r);
      int64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      values.push_back(bits);
    } else {
      return Status::Unsupported("string columns not supported");
    }
  }
  return ProfileValues(values);
}

double EstimateDistinct(const SampleFrequencyProfile& profile,
                        uint64_t population_size, DistinctMethod method) {
  // A with-replacement sample may be larger than its population (500 draws
  // from a 25-row table): n > N is valid, and the clamp below still bounds
  // the estimate by N.
  const double n = static_cast<double>(profile.sample_size);
  const double big_n = static_cast<double>(population_size);
  const double d = static_cast<double>(profile.distinct_in_sample);
  if (profile.sample_size == 0 || population_size == 0) return 0.0;

  double estimate = d;
  switch (method) {
    case DistinctMethod::kGee: {
      const double f1 = static_cast<double>(profile.f(1));
      double rest = 0.0;
      for (size_t i = 2; i < profile.frequency_of_frequencies.size(); ++i) {
        rest += static_cast<double>(profile.frequency_of_frequencies[i]);
      }
      estimate = std::sqrt(big_n / n) * f1 + rest;
      break;
    }
    case DistinctMethod::kChao: {
      const double f1 = static_cast<double>(profile.f(1));
      const double f2 = static_cast<double>(profile.f(2));
      estimate = f2 > 0.0 ? d + (f1 * f1) / (2.0 * f2)
                          : d + f1 * (f1 - 1.0) / 2.0;
      break;
    }
    case DistinctMethod::kNaiveScaleUp: {
      estimate = d * big_n / n;
      break;
    }
  }
  return std::min(std::max(estimate, d), big_n);
}

}  // namespace stats
}  // namespace robustqo
