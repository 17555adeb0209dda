#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace robustqo {
namespace fault {
namespace {

TEST(FaultInjectorTest, UnarmedSitesNeverFire) {
  FaultInjector injector(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.ShouldFire(sites::kSampleRead));
    EXPECT_TRUE(injector.Check(sites::kWriteCommit).ok());
    EXPECT_EQ(injector.CheckStall(sites::kClockStall), 0.0);
  }
  EXPECT_EQ(injector.total_fires(), 0u);
  // Unarmed probes are still counted, so coverage is observable.
  EXPECT_EQ(injector.hits(sites::kSampleRead), 100u);
}

TEST(FaultInjectorTest, AlwaysModeFiresEveryProbe) {
  FaultInjector injector;
  injector.Arm(sites::kSampleRead, FaultSpec::Always());
  for (int i = 0; i < 5; ++i) {
    Status s = injector.Check(sites::kSampleRead);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable);
    EXPECT_NE(s.message().find(sites::kSampleRead), std::string::npos);
  }
  EXPECT_EQ(injector.fires(sites::kSampleRead), 5u);
}

TEST(FaultInjectorTest, FirstNThenRecovers) {
  FaultInjector injector;
  injector.Arm(sites::kSynopsisRead, FaultSpec::FirstN(3));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (!injector.Check(sites::kSynopsisRead).ok()) ++fired;
  }
  EXPECT_EQ(fired, 3);
  // Probes 4..10 all succeeded — the transient fault healed.
  EXPECT_TRUE(injector.Check(sites::kSynopsisRead).ok());
}

TEST(FaultInjectorTest, OnNthFiresExactlyOnce) {
  FaultInjector injector;
  injector.Arm(sites::kOperatorAlloc, FaultSpec::OnNth(4));
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(!injector.Check(sites::kOperatorAlloc).ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, false,
                                      false, false, false}));
}

TEST(FaultInjectorTest, CustomStatusCode) {
  FaultInjector injector;
  FaultSpec spec = FaultSpec::Always();
  spec.code = StatusCode::kResourceExhausted;
  injector.Arm(sites::kOperatorAlloc, spec);
  EXPECT_EQ(injector.Check(sites::kOperatorAlloc).code(),
            StatusCode::kResourceExhausted);
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.Arm(sites::kSampleRead, FaultSpec::Probability(0.3));
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(injector.ShouldFire(sites::kSampleRead));
    }
    return fires;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // astronomically unlikely to collide
}

TEST(FaultInjectorTest, ProbabilityRoughlyMatchesP) {
  FaultInjector injector(11);
  injector.Arm(sites::kSampleRead, FaultSpec::Probability(0.25));
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    if (injector.ShouldFire(sites::kSampleRead)) ++fired;
  }
  EXPECT_GT(fired, 400);
  EXPECT_LT(fired, 600);
}

TEST(FaultInjectorTest, ArmingOrderDoesNotChangeStreams) {
  // Per-site streams derive from (seed, site), not from arming order.
  FaultInjector a(9);
  a.Arm(sites::kSampleRead, FaultSpec::Probability(0.5));
  a.Arm(sites::kSynopsisRead, FaultSpec::Probability(0.5));
  FaultInjector b(9);
  b.Arm(sites::kSynopsisRead, FaultSpec::Probability(0.5));
  b.Arm(sites::kSampleRead, FaultSpec::Probability(0.5));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.ShouldFire(sites::kSampleRead),
              b.ShouldFire(sites::kSampleRead));
    EXPECT_EQ(a.ShouldFire(sites::kSynopsisRead),
              b.ShouldFire(sites::kSynopsisRead));
  }
}

TEST(FaultInjectorTest, ReseedRestartsHitCounters) {
  FaultInjector injector(1);
  injector.Arm(sites::kOperatorAlloc, FaultSpec::OnNth(2));
  EXPECT_TRUE(injector.Check(sites::kOperatorAlloc).ok());
  EXPECT_FALSE(injector.Check(sites::kOperatorAlloc).ok());
  injector.Reseed(1);
  EXPECT_EQ(injector.hits(sites::kOperatorAlloc), 0u);
  EXPECT_TRUE(injector.Check(sites::kOperatorAlloc).ok());
  EXPECT_FALSE(injector.Check(sites::kOperatorAlloc).ok());
}

TEST(FaultInjectorTest, StallReturnsConfiguredSeconds) {
  FaultInjector injector;
  FaultSpec spec = FaultSpec::OnNth(1);
  spec.stall_seconds = 12.5;
  injector.Arm(sites::kClockStall, spec);
  EXPECT_EQ(injector.CheckStall(sites::kClockStall), 12.5);
  EXPECT_EQ(injector.CheckStall(sites::kClockStall), 0.0);
}

TEST(FaultInjectorTest, DisarmStopsFiring) {
  FaultInjector injector;
  injector.Arm(sites::kSampleRead, FaultSpec::Always());
  EXPECT_FALSE(injector.Check(sites::kSampleRead).ok());
  injector.Disarm(sites::kSampleRead);
  EXPECT_TRUE(injector.Check(sites::kSampleRead).ok());
  EXPECT_FALSE(injector.IsArmed(sites::kSampleRead));
}

TEST(FaultInjectorTest, FiresEmitMetricsAndTraceEvents) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  FaultInjector injector;
  injector.set_metrics(&metrics);
  injector.set_tracer(&tracer);
  injector.Arm(sites::kSampleRead, FaultSpec::FirstN(2));
  for (int i = 0; i < 5; ++i) injector.ShouldFire(sites::kSampleRead);
  EXPECT_EQ(metrics.GetCounter("fault.fired")->value(), 2u);
  EXPECT_EQ(
      metrics.GetCounter(std::string("fault.fired.") + sites::kSampleRead)
          ->value(),
      2u);
  int fault_events = 0;
  for (const auto& e : tracer.events()) {
    if (e.category == "fault" && e.name == "fired") ++fault_events;
  }
  EXPECT_EQ(fault_events, 2);
}

TEST(FaultInjectorTest, KnownSitesListedAndDescribed) {
  // Golden sorted-name list: adding a site is a one-line edit here, and
  // the size assertion below can never drift out of step with it.
  const std::vector<std::string> kExpectedSorted = {
      sites::kClockStall,       sites::kOperatorAlloc,
      sites::kAdmissionEnqueue, sites::kPlanCacheLookup,
      sites::kSampleRead,       sites::kSynopsisRead,
      sites::kWriteApply,       sites::kWriteCommit,
  };
  ASSERT_TRUE(std::is_sorted(kExpectedSorted.begin(), kExpectedSorted.end()));
  std::vector<std::string> actual_sorted = KnownFaultSites();
  std::sort(actual_sorted.begin(), actual_sorted.end());
  EXPECT_EQ(actual_sorted, kExpectedSorted);
  EXPECT_EQ(KnownFaultSites().size(), kExpectedSorted.size());

  FaultInjector injector;
  EXPECT_NE(injector.DescribeArmed().find("no faults"), std::string::npos);
  injector.Arm(sites::kPlanCacheLookup, FaultSpec::Probability(0.5));
  EXPECT_NE(injector.DescribeArmed().find(sites::kPlanCacheLookup),
            std::string::npos);
}

}  // namespace
}  // namespace fault
}  // namespace robustqo
