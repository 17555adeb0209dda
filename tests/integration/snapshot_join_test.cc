// Plan-shape equivalence over written tables: every join strategy — merge,
// indexed nested-loop, and the star semijoin — must return the hash-join
// plan's multiset at the same snapshot. Writes are what break the easy
// cases: UPDATE re-appends row versions out of clustering order, and the
// indexes keep every physical version, visible or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "storage/catalog.h"
#include "tpch/tpch_gen.h"
#include "workload/star_schema.h"

namespace robustqo {
namespace {

using core::Database;
using opt::OptimizerOptions;

// Only the hash-join enumeration: the reference every other shape must
// match.
OptimizerOptions HashJoinsOnly() {
  OptimizerOptions options;
  options.enable_merge_join = false;
  options.enable_index_nested_loop = false;
  options.enable_star_strategies = false;
  return options;
}

// Merge joins over clustering-ordered scans, with no Sort inserted by the
// planner, so the operator itself must cope with out-of-order inputs.
OptimizerOptions MergeJoinsOnly() {
  OptimizerOptions options;
  options.enable_hash_join = false;
  options.enable_index_nested_loop = false;
  options.enable_sort_for_merge = false;
  options.enable_star_strategies = false;
  return options;
}

OptimizerOptions IndexNestedLoopsOnly() {
  OptimizerOptions options;
  options.enable_hash_join = false;
  options.enable_merge_join = false;
  options.enable_star_strategies = false;
  return options;
}

// With every binary join method off, only Star(...) candidates cover the
// full table set.
OptimizerOptions StarOnly() {
  OptimizerOptions options;
  options.enable_hash_join = false;
  options.enable_merge_join = false;
  options.enable_index_nested_loop = false;
  return options;
}

struct PlanRun {
  std::string label;
  std::vector<std::string> rows;  ///< sorted rendered rows (a multiset)
};

PlanRun RunAt(Database* db, const std::string& sql,
              const OptimizerOptions& options, uint64_t snapshot) {
  PlanRun run;
  auto query = db->ParseSql(sql);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return run;
  auto plan = db->Plan(query.value(), core::EstimatorKind::kHistogram,
                       options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return run;
  run.label = plan.value().label;
  auto result = db->ExecutePlan(plan.value(), snapshot);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return run;
  const storage::Table& rows = result.value().rows;
  for (storage::Rid r = 0; r < rows.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows.schema().num_columns(); ++c) {
      line += rows.ValueAt(r, c).ToString() + "|";
    }
    run.rows.push_back(std::move(line));
  }
  std::sort(run.rows.begin(), run.rows.end());
  return run;
}

void ExecuteOk(Database* db, const std::string& sql) {
  auto result = db->ExecuteStatement(sql);
  ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
}

class SnapshotJoinTpch : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(db_.catalog(), config).ok());
    db_.UpdateStatistics();
  }
  Database db_;
};

constexpr char kOrdersLineitem[] =
    "SELECT o_orderkey, o_totalprice, l_linenumber, l_quantity "
    "FROM orders, lineitem WHERE o_orderkey < 400";

TEST_F(SnapshotJoinTpch, MergeJoinSortsReappendedVersions) {
  // The UPDATE re-appends the rewritten orders rows at the table end, behind
  // keys far larger than theirs; a merge walk trusting the clustering
  // order drops their lineitems.
  ExecuteOk(&db_,
            "UPDATE orders SET o_totalprice = o_totalprice * 2 "
            "WHERE o_orderkey BETWEEN 10 AND 100");
  const uint64_t snapshot = db_.catalog()->data_epoch();
  const PlanRun hash =
      RunAt(&db_, kOrdersLineitem, HashJoinsOnly(), snapshot);
  const PlanRun merge =
      RunAt(&db_, kOrdersLineitem, MergeJoinsOnly(), snapshot);
  ASSERT_NE(merge.label.find("MJ("), std::string::npos) << merge.label;
  ASSERT_EQ(merge.label.find("Sort("), std::string::npos) << merge.label;
  ASSERT_FALSE(hash.rows.empty());
  EXPECT_EQ(merge.rows.size(), hash.rows.size()) << merge.label;
  EXPECT_EQ(merge.rows, hash.rows) << merge.label;
}

TEST_F(SnapshotJoinTpch, IndexNestedLoopSkipsInvisibleInnerVersions) {
  const uint64_t before = db_.catalog()->data_epoch();
  ExecuteOk(&db_,
            "UPDATE lineitem SET l_quantity = l_quantity + 100 "
            "WHERE l_orderkey < 150");
  ExecuteOk(&db_,
            "DELETE FROM lineitem WHERE l_orderkey BETWEEN 200 AND 300");
  const uint64_t after = db_.catalog()->data_epoch();
  ASSERT_GT(after, before);
  for (uint64_t snapshot : {before, after}) {
    SCOPED_TRACE("snapshot " + std::to_string(snapshot));
    const PlanRun hash =
        RunAt(&db_, kOrdersLineitem, HashJoinsOnly(), snapshot);
    const PlanRun inlj =
        RunAt(&db_, kOrdersLineitem, IndexNestedLoopsOnly(), snapshot);
    ASSERT_NE(inlj.label.find(">lineitem)"), std::string::npos)
        << inlj.label;
    ASSERT_FALSE(hash.rows.empty());
    EXPECT_EQ(inlj.rows.size(), hash.rows.size()) << inlj.label;
    EXPECT_EQ(inlj.rows, hash.rows) << inlj.label;
  }
}

class SnapshotJoinStar : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::StarSchemaConfig config;
    config.fact_rows = 6000;
    config.dim_rows = 100;
    ASSERT_TRUE(workload::LoadStarSchema(db_.catalog(), config).ok());
    db_.UpdateStatistics();
  }
  Database db_;
};

// Aligned dimension filters (every fact row of group 0 joins) plus a
// filter on the fact table itself.
constexpr char kFilteredStar[] =
    "SELECT f_id, f_m1, f_m2 FROM fact, dim1, dim2, dim3 "
    "WHERE d1_attr = 0 AND d2_attr = 0 AND d3_attr = 0 AND f_m2 < 3.0";

TEST_F(SnapshotJoinStar, StarPlanAppliesTheFactFilter) {
  const uint64_t snapshot = db_.catalog()->data_epoch();
  const PlanRun hash = RunAt(&db_, kFilteredStar, HashJoinsOnly(), snapshot);
  const PlanRun star = RunAt(&db_, kFilteredStar, StarOnly(), snapshot);
  ASSERT_NE(star.label.find("Star("), std::string::npos) << star.label;
  ASSERT_FALSE(hash.rows.empty());
  EXPECT_EQ(star.rows.size(), hash.rows.size()) << star.label;
  EXPECT_EQ(star.rows, hash.rows) << star.label;
}

TEST_F(SnapshotJoinStar, StarPlanSkipsInvisibleFactAndDimensionRows) {
  const uint64_t before = db_.catalog()->data_epoch();
  ExecuteOk(&db_, "UPDATE fact SET f_m1 = f_m1 + 1 WHERE f_id < 2000");
  ExecuteOk(&db_, "DELETE FROM fact WHERE f_id BETWEEN 3000 AND 4000");
  // Moves half of dim2's group 0 out of the filter; the old versions
  // still carry d2_attr = 0 and must not join at the later snapshot.
  ExecuteOk(&db_, "UPDATE dim2 SET d2_attr = 5 WHERE d2_id <= 5");
  const uint64_t after = db_.catalog()->data_epoch();
  ASSERT_GT(after, before);
  for (uint64_t snapshot : {before, after}) {
    SCOPED_TRACE("snapshot " + std::to_string(snapshot));
    const PlanRun hash =
        RunAt(&db_, kFilteredStar, HashJoinsOnly(), snapshot);
    const PlanRun star = RunAt(&db_, kFilteredStar, StarOnly(), snapshot);
    ASSERT_NE(star.label.find("Star("), std::string::npos) << star.label;
    ASSERT_FALSE(hash.rows.empty());
    EXPECT_EQ(star.rows.size(), hash.rows.size()) << star.label;
    EXPECT_EQ(star.rows, hash.rows) << star.label;
  }
}

}  // namespace
}  // namespace robustqo
