// PlanCache: canonical statement fingerprints, LRU bounds, statistics-epoch
// invalidation, and the fault-site degradation that turns a broken cache
// into misses instead of failures.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "expr/expression.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "optimizer/plan.h"
#include "optimizer/query.h"
#include "server/plan_cache.h"

namespace robustqo {
namespace server {
namespace {

std::shared_ptr<const opt::PlannedQuery> DummyPlan(const std::string& label) {
  auto plan = std::make_shared<opt::PlannedQuery>();
  plan->label = label;
  return plan;
}

// The cached plan for `key` at `epoch`, or nullptr; the typed outcome
// lands in `*outcome` when given.
std::shared_ptr<const opt::PlannedQuery> LookupPlan(
    PlanCache* cache, const PlanCacheKey& key, uint64_t epoch,
    PlanCacheOutcome* outcome = nullptr) {
  PlanCacheOutcome ignored;
  return cache->Lookup(key, epoch, outcome != nullptr ? outcome : &ignored);
}

opt::QuerySpec TwoTableQuery(bool reversed) {
  opt::QuerySpec query;
  opt::TableRef lineitem{"lineitem",
                         expr::Lt(expr::Col("l_quantity"), expr::LitInt(10))};
  opt::TableRef orders{"orders", nullptr};
  if (reversed) {
    query.tables = {orders, lineitem};
  } else {
    query.tables = {lineitem, orders};
  }
  query.select_columns = {"l_orderkey"};
  return query;
}

TEST(FingerprintQueryTest, CanonicalisesFromOrderButNotSemantics) {
  const uint64_t forward = FingerprintQuery(TwoTableQuery(false));
  const uint64_t reversed = FingerprintQuery(TwoTableQuery(true));
  EXPECT_EQ(forward, reversed) << "FROM-list order is not semantic";

  opt::QuerySpec other = TwoTableQuery(false);
  other.tables[0].predicate =
      expr::Lt(expr::Col("l_quantity"), expr::LitInt(11));
  EXPECT_NE(FingerprintQuery(other), forward) << "predicates are semantic";

  opt::QuerySpec limited = TwoTableQuery(false);
  limited.limit = 5;
  EXPECT_NE(FingerprintQuery(limited), forward) << "LIMIT is semantic";

  opt::QuerySpec ordered = TwoTableQuery(false);
  ordered.order_by = "l_orderkey";
  EXPECT_NE(FingerprintQuery(ordered), forward) << "ORDER BY is semantic";
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCache cache(/*capacity=*/2);
  const PlanCacheKey a = PlanCacheKey::Make(
      1, 0.8, core::EstimatorKind::kRobustSample);
  const PlanCacheKey b = PlanCacheKey::Make(
      2, 0.8, core::EstimatorKind::kRobustSample);
  const PlanCacheKey c = PlanCacheKey::Make(
      3, 0.8, core::EstimatorKind::kRobustSample);

  cache.Insert(a, DummyPlan("A"), /*epoch=*/1);
  cache.Insert(b, DummyPlan("B"), 1);
  // Touch A so B becomes the LRU victim.
  ASSERT_NE(LookupPlan(&cache, a, 1), nullptr);
  cache.Insert(c, DummyPlan("C"), 1);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions_lru, 1u);
  EXPECT_NE(LookupPlan(&cache, a, 1), nullptr);
  EXPECT_EQ(LookupPlan(&cache, b, 1), nullptr) << "B was the LRU entry";
  EXPECT_NE(LookupPlan(&cache, c, 1), nullptr);
}

TEST(PlanCacheTest, EpochMismatchInvalidatesLazily) {
  PlanCache cache(4);
  const PlanCacheKey key = PlanCacheKey::Make(
      7, 0.8, core::EstimatorKind::kRobustSample);
  cache.Insert(key, DummyPlan("stale"), /*epoch=*/1);

  // UPDATE STATISTICS bumped the epoch: the entry is dropped on lookup.
  PlanCacheOutcome outcome = PlanCacheOutcome::kHit;
  EXPECT_EQ(LookupPlan(&cache, key, /*current_epoch=*/2, &outcome), nullptr);
  EXPECT_EQ(outcome, PlanCacheOutcome::kStaleEpoch);
  EXPECT_EQ(cache.stats().invalidated_epoch, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The entry is gone, so the next lookup is a plain miss.
  EXPECT_EQ(LookupPlan(&cache, key, 2, &outcome), nullptr);
  EXPECT_EQ(outcome, PlanCacheOutcome::kMiss);

  // Re-inserted under the new epoch it serves again.
  cache.Insert(key, DummyPlan("fresh"), 2);
  ASSERT_NE(LookupPlan(&cache, key, 2, &outcome), nullptr);
  EXPECT_EQ(outcome, PlanCacheOutcome::kHit);
  EXPECT_EQ(LookupPlan(&cache, key, 2)->label, "fresh");
}

TEST(PlanCacheTest, DifferentThresholdsNeverShareAPlan) {
  // The paper's point: T% changes which plan is robust-optimal, so T% is
  // part of the key.
  PlanCache cache(8);
  const uint64_t fp = 99;
  const PlanCacheKey low = PlanCacheKey::Make(
      fp, 0.5, core::EstimatorKind::kRobustSample);
  const PlanCacheKey high = PlanCacheKey::Make(
      fp, 0.95, core::EstimatorKind::kRobustSample);
  const PlanCacheKey histogram = PlanCacheKey::Make(
      fp, 0.5, core::EstimatorKind::kHistogram);

  cache.Insert(low, DummyPlan("merge-heavy"), 1);
  EXPECT_EQ(LookupPlan(&cache, high, 1), nullptr);
  EXPECT_EQ(LookupPlan(&cache, histogram, 1), nullptr);

  cache.Insert(high, DummyPlan("index-conservative"), 1);
  cache.Insert(histogram, DummyPlan("histogram-pick"), 1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(LookupPlan(&cache, low, 1)->label, "merge-heavy");
  EXPECT_EQ(LookupPlan(&cache, high, 1)->label, "index-conservative");
}

TEST(PlanCacheTest, LookupFaultDegradesToCountedMiss) {
  fault::FaultInjector injector(3);
  injector.Arm(fault::sites::kPlanCacheLookup, fault::FaultSpec::FirstN(1));

  PlanCache cache(4);
  cache.set_fault_injector(&injector);
  const PlanCacheKey key = PlanCacheKey::Make(
      1, 0.8, core::EstimatorKind::kRobustSample);
  cache.Insert(key, DummyPlan("cached"), 1);

  // First lookup degrades (fault fires); the entry itself is intact.
  PlanCacheOutcome outcome = PlanCacheOutcome::kHit;
  EXPECT_EQ(LookupPlan(&cache, key, 1, &outcome), nullptr);
  EXPECT_EQ(outcome, PlanCacheOutcome::kDegradedFault);
  EXPECT_EQ(cache.stats().degraded_fault, 1u);
  EXPECT_NE(LookupPlan(&cache, key, 1), nullptr);
}

// `.plancache` prints T% as a percentage and names the estimator, so the
// entries of distinct keys never render identically.
TEST(PlanCacheTest, ReportTextShowsThresholdPercentAndEstimator) {
  PlanCache cache(8);
  const uint64_t fp = 0xabc;
  cache.Insert(PlanCacheKey::Make(fp, 0.80, core::EstimatorKind::kRobustSample),
               DummyPlan("p80"), 1);
  cache.Insert(PlanCacheKey::Make(fp, 0.95, core::EstimatorKind::kRobustSample),
               DummyPlan("p95"), 1);
  cache.Insert(PlanCacheKey::Make(fp, 0.80, core::EstimatorKind::kHistogram),
               DummyPlan("h80"), 1);
  const std::string report = cache.ReportText();
  EXPECT_NE(report.find("fp=0000000000000abc T=80% robust epoch=1 hits=0  p80\n"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("fp=0000000000000abc T=95% robust epoch=1 hits=0  p95\n"),
            std::string::npos)
      << report;
  EXPECT_NE(
      report.find("fp=0000000000000abc T=80% histogram epoch=1 hits=0  h80\n"),
      std::string::npos)
      << report;
}

TEST(PlanCacheTest, PublishMetricsIsIdempotent) {
  PlanCache cache(2);
  const PlanCacheKey key = PlanCacheKey::Make(
      1, 0.8, core::EstimatorKind::kRobustSample);
  cache.Insert(key, DummyPlan("p"), 1);
  ASSERT_NE(LookupPlan(&cache, key, 1), nullptr);
  ASSERT_EQ(LookupPlan(&cache, PlanCacheKey::Make(
                             2, 0.8, core::EstimatorKind::kRobustSample),
                         1),
            nullptr);

  obs::MetricsRegistry metrics;
  cache.PublishMetrics(&metrics);
  cache.PublishMetrics(&metrics);
  EXPECT_DOUBLE_EQ(metrics.GetCounter("perf.cache.plan.hits")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetCounter("perf.cache.plan.misses")->value(), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetCounter("perf.cache.plan.insertions")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("perf.cache.plan.size")->value(), 1.0);
}

}  // namespace
}  // namespace server
}  // namespace robustqo
