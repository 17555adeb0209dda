// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Precomputed uniform random samples of base tables (paper Section 3.2).
// A sample is itself stored as a Table, so arbitrary predicates can be
// evaluated on it with the ordinary expression machinery.

#ifndef ROBUSTQO_STATISTICS_SAMPLE_H_
#define ROBUSTQO_STATISTICS_SAMPLE_H_

#include <memory>
#include <string>

#include "storage/table.h"
#include "util/rng.h"

namespace robustqo {
namespace stats {

/// How sample tuples are drawn. The paper's Bayesian analysis (Section 3.3)
/// models independent draws, i.e. sampling with replacement; without-
/// replacement sampling is also provided (the posterior is an excellent
/// approximation for sample sizes far below the table size).
enum class SamplingMode {
  kWithReplacement,
  kWithoutReplacement,
};

/// A uniform random sample of one base table.
class TableSample {
 public:
  /// Draws `sample_size` tuples from `table` using `mode`. If the table has
  /// fewer rows than `sample_size` and mode is without-replacement, the
  /// sample is the whole table.
  TableSample(const storage::Table& table, size_t sample_size,
              SamplingMode mode, Rng* rng);

  const std::string& source_table() const { return source_table_; }
  uint64_t source_row_count() const { return source_row_count_; }

  /// Number of tuples in the sample (n in the paper's notation).
  uint64_t size() const { return rows_->num_rows(); }

  /// The sampled tuples, as a table with the source schema.
  const storage::Table& rows() const { return *rows_; }

  /// RIDs in the source table that each sample tuple came from.
  const std::vector<storage::Rid>& source_rids() const { return source_rids_; }

 private:
  std::string source_table_;
  uint64_t source_row_count_ = 0;
  std::unique_ptr<storage::Table> rows_;
  std::vector<storage::Rid> source_rids_;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_SAMPLE_H_
