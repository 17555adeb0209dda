// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Join synopses (Acharya, Gibbons, Poosala & Ramaswamy [1], as adopted by
// the paper in Section 3.2): for a relation R with foreign keys, a uniform
// random sample of R joined with the *full* referenced relations, following
// foreign keys recursively. Any foreign-key join rooted at R projects out of
// this synopsis as a uniform random sample of the join result, so the
// selectivity of an SPJ expression rooted at R can be estimated by simply
// evaluating its predicates on the synopsis rows.

#ifndef ROBUSTQO_STATISTICS_JOIN_SYNOPSIS_H_
#define ROBUSTQO_STATISTICS_JOIN_SYNOPSIS_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "statistics/sample.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace robustqo {
namespace stats {

/// A join synopsis rooted at one table.
class JoinSynopsis {
 public:
  /// Samples `sample_size` tuples from `root_table` and joins each with the
  /// referenced rows along every foreign-key path reachable from the root.
  /// Requires: acyclic FK graph, unique column names across the involved
  /// tables (TPC-H style), FK integrity (every FK value resolves).
  JoinSynopsis(const storage::Catalog& catalog, const std::string& root_table,
               size_t sample_size, SamplingMode mode, Rng* rng);

  const std::string& root_table() const { return root_table_; }

  /// Row count of the root table (the population the selectivity fraction
  /// applies to: an SPJ expression rooted at R has cardinality sel * |R|).
  uint64_t root_row_count() const { return root_row_count_; }

  /// Number of synopsis tuples (n in the paper's notation).
  uint64_t size() const { return rows_->num_rows(); }

  /// Tables whose columns appear in the synopsis (root + FK closure).
  const std::set<std::string>& covered_tables() const {
    return covered_tables_;
  }

  /// True iff the synopsis can answer an expression over `tables` (i.e. it
  /// covers all of them and is rooted at the expression's root).
  bool Covers(const std::set<std::string>& tables) const;

  /// The wide synopsis rows: root columns followed by the columns of every
  /// reachable referenced table.
  const storage::Table& rows() const { return *rows_; }

 private:
  std::string root_table_;
  uint64_t root_row_count_ = 0;
  std::set<std::string> covered_tables_;
  std::unique_ptr<storage::Table> rows_;
};

}  // namespace stats
}  // namespace robustqo

#endif  // ROBUSTQO_STATISTICS_JOIN_SYNOPSIS_H_
