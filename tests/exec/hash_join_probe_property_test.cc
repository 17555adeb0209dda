// Property test: the hash join's output rows and their order equal a
// nested-loop reference (probe rows in order, each followed by its matching
// build rows in descending build-row order) over random key sets. Unique
// build keys take the branch-free probe and duplicate keys the chained one:
// dense, sparse, negative and extreme keys (INT64_MIN, INT64_MAX, and the
// small keys 0-64 an empty bucket's sentinel key is picked from), empty
// build sides, selected and unselected inputs, and versioned tables read at
// a snapshot. A row budget inside the join's output trips at the same row,
// with the same rows_charged, as one governor tick per output row.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "expr/expression.h"
#include "fault/governor.h"
#include "util/rng.h"

namespace robustqo {
namespace exec {
namespace {

using expr::Col;
using expr::Ge;
using expr::LitInt;
using storage::Catalog;
using storage::DataType;
using storage::Rid;
using storage::Schema;
using storage::Table;
using storage::Value;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// One join input, stored as a table of (id, key, tag): ids number the rows,
// and a scan keeps the rows whose tag is at least its bound.
struct Side {
  std::vector<int64_t> keys;
  std::vector<int64_t> tags;
  int64_t bound = 0;  // 0 keeps every row, unselected
};

// A side with versioned rows: row i is inserted at epoch inserted[i] and,
// when deleted[i] is nonzero, deleted at that epoch.
struct VersionedSide {
  Side side;
  std::vector<uint64_t> inserted;
  std::vector<uint64_t> deleted;
};

std::unique_ptr<Table> MakeTable(const std::string& prefix, const Side& side,
                                 const std::vector<uint64_t>* inserted,
                                 const std::vector<uint64_t>* deleted) {
  auto table = std::make_unique<Table>(
      prefix, Schema({{prefix + "_id", DataType::kInt64},
                      {prefix + "_key", DataType::kInt64},
                      {prefix + "_tag", DataType::kInt64}}));
  for (size_t i = 0; i < side.keys.size(); ++i) {
    const std::vector<Value> row = {Value::Int64(static_cast<int64_t>(i)),
                                    Value::Int64(side.keys[i]),
                                    Value::Int64(side.tags[i])};
    if (inserted == nullptr) {
      table->AppendRow(row);
    } else {
      table->AppendRowVersioned(row, (*inserted)[i]);
    }
  }
  if (deleted != nullptr) {
    for (Rid rid = 0; rid < deleted->size(); ++rid) {
      if ((*deleted)[rid] != 0) table->MarkDeleted(rid, (*deleted)[rid]);
    }
  }
  return table;
}

// The rows a scan of `table` with bound `bound` emits at `snapshot`.
std::vector<Rid> ScannedRows(const Table& table, int64_t bound,
                             uint64_t snapshot) {
  std::vector<Rid> rows;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    if (!table.VisibleAt(rid, snapshot)) continue;
    if (bound != 0 && table.column(2).Int64At(rid) < bound) continue;
    rows.push_back(rid);
  }
  return rows;
}

class HashJoinProbePropertyTest : public ::testing::Test {
 protected:
  // Loads the two sides as tables "b" (build) and "p" (probe).
  void Load(const Side& build, const Side& probe,
            const VersionedSide* versioned_build = nullptr,
            const VersionedSide* versioned_probe = nullptr) {
    catalog_ = std::make_unique<Catalog>();
    build_bound_ = build.bound;
    probe_bound_ = probe.bound;
    ASSERT_TRUE(catalog_
                    ->AddTable(MakeTable(
                        "b", build,
                        versioned_build ? &versioned_build->inserted : nullptr,
                        versioned_build ? &versioned_build->deleted : nullptr))
                    .ok());
    ASSERT_TRUE(catalog_
                    ->AddTable(MakeTable(
                        "p", probe,
                        versioned_probe ? &versioned_probe->inserted : nullptr,
                        versioned_probe ? &versioned_probe->deleted : nullptr))
                    .ok());
  }

  HashJoinOp Join() const {
    auto scan = [](const std::string& table, int64_t bound) {
      return std::make_unique<SeqScanOp>(
          table, bound != 0 ? Ge(Col(table + "_tag"), LitInt(bound))
                            : nullptr);
    };
    return HashJoinOp(scan("b", build_bound_), scan("p", probe_bound_),
                      "b_key", "p_key");
  }

  // (build id, probe id) of every output row, by nested loops: probe rows
  // in scan order, each with its matching build rows in descending order.
  std::vector<std::pair<int64_t, int64_t>> Reference(uint64_t snapshot) const {
    const Table& b = *catalog_->GetTable("b");
    const Table& p = *catalog_->GetTable("p");
    const std::vector<Rid> build_rows = ScannedRows(b, build_bound_, snapshot);
    std::vector<std::pair<int64_t, int64_t>> out;
    for (Rid prid : ScannedRows(p, probe_bound_, snapshot)) {
      const int64_t key = p.column("p_key").Int64At(prid);
      for (size_t i = build_rows.size(); i-- > 0;) {
        if (b.column("b_key").Int64At(build_rows[i]) == key) {
          out.emplace_back(b.column("b_id").Int64At(build_rows[i]),
                           p.column("p_id").Int64At(prid));
        }
      }
    }
    return out;
  }

  // Runs the join at `snapshot` and checks it against the reference, then
  // under row budgets inside its output.
  void ExpectMatchesReference(uint64_t snapshot, Rng* rng) {
    SCOPED_TRACE("snapshot " + std::to_string(snapshot));
    const std::vector<std::pair<int64_t, int64_t>> expected =
        Reference(snapshot);
    fault::QueryGovernor governor;
    ExecContext ctx = Context(snapshot, &governor);
    Result<Table> out = Join().Run(&ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const Table& rows = out.value();
    ASSERT_EQ(rows.num_rows(), expected.size());
    for (Rid r = 0; r < rows.num_rows(); ++r) {
      ASSERT_EQ(rows.column("b_id").Int64At(r), expected[r].first)
          << "output row " << r;
      ASSERT_EQ(rows.column("p_id").Int64At(r), expected[r].second)
          << "output row " << r;
      ASSERT_EQ(rows.column("b_key").Int64At(r), rows.column("p_key").Int64At(r));
    }
    const uint64_t total = governor.rows_charged();
    ASSERT_GE(total, expected.size());
    const uint64_t children = total - expected.size();

    // Each limit in [children, total) trips on output row limit + 1; the
    // limit `total` lets the join finish.
    std::vector<uint64_t> limits = {total};
    if (!expected.empty()) {
      limits.push_back(children);
      limits.push_back(total - 1);
      limits.push_back(children + rng->NextBounded(expected.size()));
    }
    for (uint64_t limit : limits) {
      if (limit == 0) continue;  // 0 is no limit
      SCOPED_TRACE("row limit " + std::to_string(limit));
      fault::GovernorLimits budget;
      budget.row_limit = limit;
      fault::QueryGovernor limited(budget);
      ExecContext limited_ctx = Context(snapshot, &limited);
      Result<Table> tripped = Join().Run(&limited_ctx);
      if (limit == total) {
        ASSERT_TRUE(tripped.ok()) << tripped.status().ToString();
        EXPECT_EQ(limited.rows_charged(), total);
        continue;
      }
      ASSERT_FALSE(tripped.ok());
      EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(limited.rows_charged(), limit + 1);
    }
  }

  ExecContext Context(uint64_t snapshot,
                      fault::QueryGovernor* governor) const {
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.snapshot_epoch = snapshot;
    ctx.governor = governor;
    return ctx;
  }

  std::unique_ptr<Catalog> catalog_;
  int64_t build_bound_ = 0;
  int64_t probe_bound_ = 0;
};

// Tags in [1, 4]; a bound of 0 keeps every row, 2 or 3 selects some.
std::vector<int64_t> RandomTags(size_t n, Rng* rng) {
  std::vector<int64_t> tags(n);
  for (int64_t& tag : tags) tag = rng->NextInRange(1, 4);
  return tags;
}

int64_t RandomBound(Rng* rng) { return rng->NextBernoulli(0.5) ? 0 : 2; }

// `n` probe keys drawn from `pool`, or from anywhere in int64.
std::vector<int64_t> RandomProbeKeys(size_t n,
                                     const std::vector<int64_t>& pool,
                                     Rng* rng) {
  std::vector<int64_t> keys(n);
  for (int64_t& key : keys) {
    key = pool.empty() || rng->NextBernoulli(0.2)
              ? static_cast<int64_t>(rng->Next())
              : pool[rng->NextBounded(pool.size())];
  }
  return keys;
}

// The sparse key pool: both extremes, the small keys 0-64, and random
// negative and large keys.
std::vector<int64_t> SparsePool(Rng* rng) {
  std::vector<int64_t> pool = {kMin, kMin + 1, kMax, kMax - 1, -1};
  for (int64_t k = 0; k <= 64; ++k) pool.push_back(k);
  for (int i = 0; i < 400; ++i) {
    pool.push_back(static_cast<int64_t>(rng->Next()));
    pool.push_back(-rng->NextInRange(1, 1000000));
  }
  return pool;
}

TEST_F(HashJoinProbePropertyTest, UniqueDenseKeysMatchNestedLoops) {
  Rng rng(20261020);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t n = 1 + rng.NextBounded(300);
    const int64_t base = rng.NextInRange(-500, 500);
    Side build;
    for (size_t i = 0; i < n; ++i) build.keys.push_back(base + i);
    rng.Shuffle(&build.keys);
    build.tags = RandomTags(n, &rng);
    build.bound = RandomBound(&rng);
    Side probe;
    const size_t m = rng.NextBounded(3000);
    for (size_t i = 0; i < m; ++i) {
      probe.keys.push_back(base + rng.NextInRange(-20, n + 20));
    }
    probe.tags = RandomTags(m, &rng);
    probe.bound = RandomBound(&rng);
    Load(build, probe);
    ExpectMatchesReference(storage::kLatestSnapshot, &rng);
  }
}

TEST_F(HashJoinProbePropertyTest, UniqueSparseAndExtremeKeysMatchNestedLoops) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<int64_t> pool = SparsePool(&rng);
    // A random unique subset of the pool; every other trial keeps 0-64.
    std::set<int64_t> chosen;
    const size_t n = rng.NextBounded(400);
    while (chosen.size() < n) chosen.insert(pool[rng.NextBounded(pool.size())]);
    if (trial % 2 == 0) {
      for (int64_t k = 0; k <= 64; ++k) chosen.insert(k);
    }
    Side build;
    build.keys.assign(chosen.begin(), chosen.end());
    rng.Shuffle(&build.keys);
    build.tags = RandomTags(build.keys.size(), &rng);
    build.bound = RandomBound(&rng);
    Side probe;
    probe.keys = RandomProbeKeys(rng.NextBounded(2500), pool, &rng);
    probe.tags = RandomTags(probe.keys.size(), &rng);
    probe.bound = RandomBound(&rng);
    Load(build, probe);
    ExpectMatchesReference(storage::kLatestSnapshot, &rng);
  }
}

// Duplicate build keys keep the chained probe: each probe row is followed
// by all of its matches, in descending build-row order.
TEST_F(HashJoinProbePropertyTest, DuplicateBuildKeysMatchNestedLoops) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t n = 2 + rng.NextBounded(300);
    const int64_t domain = 1 + rng.NextBounded(n);
    Side build;
    for (size_t i = 0; i < n; ++i) {
      build.keys.push_back(rng.NextBernoulli(0.1)
                               ? (rng.NextBernoulli(0.5) ? kMin : kMax)
                               : rng.NextInRange(0, domain - 1));
    }
    // At least one key repeats.
    build.keys.push_back(build.keys[rng.NextBounded(n)]);
    build.tags = RandomTags(build.keys.size(), &rng);
    build.bound = RandomBound(&rng);
    Side probe;
    probe.keys = RandomProbeKeys(rng.NextBounded(2000), build.keys, &rng);
    probe.tags = RandomTags(probe.keys.size(), &rng);
    probe.bound = RandomBound(&rng);
    Load(build, probe);
    ExpectMatchesReference(storage::kLatestSnapshot, &rng);
  }
}

// An empty build side, or one its scan leaves empty, joins nothing.
TEST_F(HashJoinProbePropertyTest, EmptyBuildSideJoinsNothing) {
  Rng rng(3);
  Side probe;
  probe.keys = RandomProbeKeys(1500, SparsePool(&rng), &rng);
  probe.tags = RandomTags(probe.keys.size(), &rng);
  for (int64_t probe_bound : {0, 2}) {
    probe.bound = probe_bound;
    Load(Side{}, probe);
    ExpectMatchesReference(storage::kLatestSnapshot, &rng);
    Side filtered;
    filtered.keys = {1, 2, 3};
    filtered.tags = {1, 1, 1};
    filtered.bound = 2;
    Load(filtered, probe);
    EXPECT_TRUE(Reference(storage::kLatestSnapshot).empty());
    ExpectMatchesReference(storage::kLatestSnapshot, &rng);
  }
}

// Versioned tables read at each snapshot: the build side's keys are updated
// in place, so its physical rows repeat a key while each snapshot sees it
// once (the unique probe), and the probe side gains and loses rows.
TEST_F(HashJoinProbePropertyTest, VersionedTablesMatchNestedLoopsAtSnapshots) {
  Rng rng(2026);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    VersionedSide build;
    const std::vector<int64_t> sparse = SparsePool(&rng);
    std::set<int64_t> chosen;
    const size_t n = 1 + rng.NextBounded(200);
    while (chosen.size() < n) {
      chosen.insert(sparse[rng.NextBounded(sparse.size())]);
    }
    build.side.keys.assign(chosen.begin(), chosen.end());
    rng.Shuffle(&build.side.keys);
    build.inserted.assign(n, 0);
    build.deleted.assign(n, 0);
    // UPDATEs at epochs 1-3: each replaces a key's live version with a new
    // one at the end of the table.
    std::vector<size_t> live(n);
    for (size_t i = 0; i < n; ++i) live[i] = i;
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      for (size_t i = 0; i < n; ++i) {
        if (!rng.NextBernoulli(0.2)) continue;
        build.deleted[live[i]] = epoch;
        live[i] = build.side.keys.size();
        build.side.keys.push_back(build.side.keys[i]);
        build.inserted.push_back(epoch);
        build.deleted.push_back(0);
      }
    }
    build.side.tags = RandomTags(build.side.keys.size(), &rng);
    build.side.bound = RandomBound(&rng);

    VersionedSide probe;
    probe.side.keys =
        RandomProbeKeys(rng.NextBounded(2500), build.side.keys, &rng);
    for (size_t i = 0; i < probe.side.keys.size(); ++i) {
      probe.inserted.push_back(rng.NextBounded(4));
      probe.deleted.push_back(rng.NextBernoulli(0.2)
                                  ? probe.inserted.back() + 1 +
                                        rng.NextBounded(3)
                                  : 0);
    }
    probe.side.tags = RandomTags(probe.side.keys.size(), &rng);
    probe.side.bound = RandomBound(&rng);
    Load(build.side, probe.side, &build, &probe);
    for (uint64_t snapshot : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                              uint64_t{3}, storage::kLatestSnapshot}) {
      ExpectMatchesReference(snapshot, &rng);
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace robustqo
