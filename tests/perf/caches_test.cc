// The memo layers must be invisible to the numerics: a cached inverse-Beta
// quantile or (k, n) probe count is bit-identical to the uncached
// computation, including across LRU eviction boundaries.

#include "perf/caches.h"

#include <vector>

#include "gtest/gtest.h"
#include "stats_math/beta_distribution.h"

namespace robustqo {
namespace perf {
namespace {

TEST(ProbeCountCacheTest, MissThenHit) {
  ProbeCountCache cache;
  EXPECT_FALSE(cache.Lookup("sample:lineitem", 0xabcu).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert("sample:lineitem", 0xabcu, {7, 100});
  auto hit = cache.Lookup("sample:lineitem", 0xabcu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->satisfying, 7u);
  EXPECT_EQ(hit->sample_size, 100u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProbeCountCacheTest, SourcesDoNotShareEntries) {
  ProbeCountCache cache;
  cache.Insert("sample:orders", 1u, {1, 10});
  cache.Insert("sample:lineitem", 1u, {9, 10});
  EXPECT_EQ(cache.Lookup("sample:orders", 1u)->satisfying, 1u);
  EXPECT_EQ(cache.Lookup("sample:lineitem", 1u)->satisfying, 9u);
  // Same source, different fingerprint is also distinct.
  EXPECT_FALSE(cache.Lookup("sample:orders", 2u).has_value());
}

TEST(ProbeCountCacheTest, ClearDropsEntriesAndCounters) {
  ProbeCountCache cache;
  cache.Insert("s", 1u, {1, 2});
  (void)cache.Lookup("s", 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.Lookup("s", 1u).has_value());
}

// Cached vs uncached cdf^{-1} identity — the estimator swaps
// EstimateAtConfidence for the memoized lookup, so any divergence here
// would silently change every estimate.
TEST(InverseBetaCacheTest, CachedEqualsUncachedBitwise) {
  InverseBetaCache cache;
  const double p = 0.8;
  for (double alpha : {0.5, 1.0, 3.5, 200.0}) {
    for (double beta : {0.5, 2.0, 77.25, 1000.0}) {
      const double direct = math::BetaDistribution(alpha, beta).InverseCdf(p);
      bool hit = true;
      EXPECT_EQ(cache.Value(alpha, beta, p, &hit), direct);
      EXPECT_FALSE(hit);
      EXPECT_EQ(cache.Value(alpha, beta, p, &hit), direct);  // now cached
      EXPECT_TRUE(hit);
    }
  }
}

TEST(InverseBetaCacheTest, IdenticalAcrossEvictionBoundaries) {
  // Capacity 4, 16 distinct keys: every key is evicted and recomputed
  // multiple times. Recomputed values must equal the first computation
  // exactly (same input bits -> same Newton iteration -> same output).
  InverseBetaCache cache(4);
  const double p = 0.95;
  std::vector<double> first(16);
  for (int i = 0; i < 16; ++i) {
    first[i] = cache.Value(0.5 + i, 10.5 + i, p);
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(cache.Value(0.5 + i, 10.5 + i, p), first[i])
          << "key " << i << " round " << round;
      EXPECT_EQ(cache.Value(0.5 + i, 10.5 + i, p),
                math::BetaDistribution(0.5 + i, 10.5 + i).InverseCdf(p));
    }
  }
  EXPECT_LE(cache.size(), 4u);
}

TEST(InverseBetaCacheTest, LruEvictsLeastRecentlyUsed) {
  InverseBetaCache cache(2);
  bool hit = false;
  cache.Value(1.0, 1.0, 0.5);  // A
  cache.Value(2.0, 2.0, 0.5);  // B
  cache.Value(1.0, 1.0, 0.5, &hit);  // touch A -> B is now LRU
  EXPECT_TRUE(hit);
  cache.Value(3.0, 3.0, 0.5);  // C evicts B
  cache.Value(1.0, 1.0, 0.5, &hit);
  EXPECT_TRUE(hit);  // A survived
  cache.Value(2.0, 2.0, 0.5, &hit);
  EXPECT_FALSE(hit);  // B was evicted
}

TEST(InverseBetaCacheTest, DistinctPercentilesAreDistinctKeys) {
  InverseBetaCache cache;
  const double lo = cache.Value(2.0, 8.0, 0.5);
  const double hi = cache.Value(2.0, 8.0, 0.95);
  EXPECT_LT(lo, hi);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace perf
}  // namespace robustqo
