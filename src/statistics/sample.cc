#include "statistics/sample.h"

#include <algorithm>

#include "util/macros.h"

namespace robustqo {
namespace stats {

TableSample::TableSample(const storage::Table& table, size_t sample_size,
                         SamplingMode mode, Rng* rng)
    : source_table_(table.name()), source_row_count_(table.VisibleRowCount()) {
  RQO_CHECK(rng != nullptr);
  rows_ = std::make_unique<storage::Table>(table.name() + "$sample",
                                           table.schema());
  if (source_row_count_ == 0) return;

  // Versioned tables sample the *visible* rows only: dead versions left by
  // UPDATE/DELETE are physical storage, not data. Unversioned tables keep
  // the direct-RID draw (bit-identical to the pre-DML code path).
  std::vector<storage::Rid> visible;
  if (table.versioned()) {
    visible.reserve(static_cast<size_t>(source_row_count_));
    for (storage::Rid r = 0; r < table.num_rows(); ++r) {
      if (table.VisibleAt(r)) visible.push_back(r);
    }
  }
  const uint64_t population =
      table.versioned() ? visible.size() : table.num_rows();

  std::vector<uint64_t> picks;
  if (mode == SamplingMode::kWithReplacement) {
    picks = rng->SampleWithReplacement(population, sample_size);
  } else {
    const size_t k =
        std::min<size_t>(sample_size, static_cast<size_t>(population));
    picks = rng->SampleWithoutReplacement(population, k);
  }
  rows_->Reserve(picks.size());
  source_rids_.reserve(picks.size());
  for (uint64_t pick : picks) {
    const storage::Rid rid = table.versioned() ? visible[pick] : pick;
    rows_->AppendRow(table.RowAt(rid));
    source_rids_.push_back(rid);
  }
}

}  // namespace stats
}  // namespace robustqo
