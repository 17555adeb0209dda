#include "storage/index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/macros.h"

namespace robustqo {
namespace storage {

SortedIndex::SortedIndex(const Table& table, std::string column_name)
    : table_name_(table.name()), column_name_(std::move(column_name)) {
  auto idx = table.schema().ColumnIndex(column_name_);
  RQO_CHECK_MSG(idx.ok(), idx.status().ToString().c_str());
  const ColumnVector& col = table.column(idx.value());
  RQO_CHECK_MSG(col.type() != DataType::kString,
                "string columns are not indexable");

  const uint64_t n = table.num_rows();
  std::vector<Rid> order(n);
  std::iota(order.begin(), order.end(), Rid{0});

  std::vector<double> raw(n);
  if (IsIntegerPhysical(col.type())) {
    for (uint64_t i = 0; i < n; ++i) {
      raw[i] = static_cast<double>(col.Int64At(i));
    }
  } else {
    for (uint64_t i = 0; i < n; ++i) raw[i] = col.DoubleAt(i);
  }
  // `<` is no strict weak order once NaN is present: NaN keys go after the
  // sorted ones and no lookup reaches them (no range contains NaN).
  // Without NaN the partition moves nothing.
  const auto ordered_end =
      std::stable_partition(order.begin(), order.end(),
                            [&raw](Rid r) { return !std::isnan(raw[r]); });
  num_ordered_ = static_cast<size_t>(ordered_end - order.begin());
  std::sort(order.begin(), ordered_end,
            [&raw](Rid a, Rid b) { return raw[a] < raw[b]; });

  keys_.resize(n);
  rids_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    keys_[i] = raw[order[i]];
    rids_[i] = order[i];
  }
}

size_t SortedIndex::LowerBound(double x) const {
  const auto end = keys_.begin() + num_ordered_;
  return static_cast<size_t>(std::lower_bound(keys_.begin(), end, x) -
                             keys_.begin());
}

size_t SortedIndex::UpperBound(double x) const {
  const auto end = keys_.begin() + num_ordered_;
  return static_cast<size_t>(std::upper_bound(keys_.begin(), end, x) -
                             keys_.begin());
}

std::span<const Rid> SortedIndex::RangeLookup(
    std::optional<double> lo, std::optional<double> hi,
    uint64_t* entries_scanned) const {
  const size_t begin = lo.has_value() ? LowerBound(*lo) : 0;
  const size_t end = hi.has_value() ? UpperBound(*hi) : num_ordered_;
  if (entries_scanned != nullptr) {
    *entries_scanned = begin <= end ? (end - begin) : 0;
  }
  if (begin >= end) return {};
  return std::span<const Rid>(rids_).subspan(begin, end - begin);
}

std::span<const Rid> SortedIndex::EqualLookup(
    double key, uint64_t* entries_scanned) const {
  return RangeLookup(key, key, entries_scanned);
}

uint64_t SortedIndex::CountRange(std::optional<double> lo,
                                 std::optional<double> hi) const {
  const size_t begin = lo.has_value() ? LowerBound(*lo) : 0;
  const size_t end = hi.has_value() ? UpperBound(*hi) : num_ordered_;
  return begin <= end ? (end - begin) : 0;
}

}  // namespace storage
}  // namespace robustqo
