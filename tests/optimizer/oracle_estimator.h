// Test helper: a cardinality "estimator" that computes exact cardinalities
// by materializing the full foreign-key join and counting. With exact
// cardinalities, the optimizer's predicted plan cost must equal the cost
// meter's measured cost — the consistency property the oracle tests lock in.

#ifndef ROBUSTQO_TESTS_OPTIMIZER_ORACLE_ESTIMATOR_H_
#define ROBUSTQO_TESTS_OPTIMIZER_ORACLE_ESTIMATOR_H_

#include <map>
#include <memory>
#include <string>

#include "expr/expression.h"
#include "statistics/cardinality_estimator.h"
#include "statistics/join_synopsis.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace robustqo {
namespace testing_support {

class OracleEstimator : public stats::CardinalityEstimator {
 public:
  explicit OracleEstimator(const storage::Catalog* catalog)
      : catalog_(catalog) {}

  Result<double> EstimateRows(
      const stats::CardinalityRequest& request,
      const stats::EstimationContext& /*context*/) override {
    auto root = catalog_->FindRootTable(request.tables);
    if (!root.ok()) return root.status();
    const storage::Table& wide = FullJoin(root.value());
    if (request.predicate == nullptr) {
      return static_cast<double>(
          catalog_->GetTable(root.value())->num_rows());
    }
    const std::string key =
        root.value() + "|" + request.predicate->ToString();
    auto it = count_cache_.find(key);
    if (it != count_cache_.end()) return it->second;
    const double rows = static_cast<double>(
        expr::CountSatisfying(*request.predicate, wide));
    count_cache_.emplace(key, rows);
    return rows;
  }

  std::string name(const stats::EstimationContext& /*context*/) const override {
    return "oracle";
  }

 private:
  // The full FK join rooted at `root` (every root row, chased through all
  // foreign keys), built once. A join synopsis whose "sample" is the whole
  // table without replacement is exactly this join.
  const storage::Table& FullJoin(const std::string& root) {
    auto it = joins_.find(root);
    if (it == joins_.end()) {
      Rng rng(1);
      auto synopsis = std::make_unique<stats::JoinSynopsis>(
          *catalog_, root,
          static_cast<size_t>(catalog_->GetTable(root)->num_rows()),
          stats::SamplingMode::kWithoutReplacement, &rng);
      it = joins_.emplace(root, std::move(synopsis)).first;
    }
    return it->second->rows();
  }

  const storage::Catalog* catalog_;
  std::map<std::string, std::unique_ptr<stats::JoinSynopsis>> joins_;
  std::map<std::string, double> count_cache_;
};

}  // namespace testing_support
}  // namespace robustqo

#endif  // ROBUSTQO_TESTS_OPTIMIZER_ORACLE_ESTIMATOR_H_
