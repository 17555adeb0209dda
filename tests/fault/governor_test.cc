#include "fault/governor.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace robustqo {
namespace fault {
namespace {

TEST(GovernorTest, DefaultGovernorIsUnlimited) {
  QueryGovernor governor;
  EXPECT_TRUE(governor.limits().Unlimited());
  EXPECT_TRUE(governor.ChargeMemory(1ull << 40).ok());
  EXPECT_TRUE(governor.ChargeRows(1ull << 40).ok());
  EXPECT_TRUE(governor.CheckTime(1e12).ok());
  EXPECT_FALSE(governor.tripped());
}

TEST(GovernorTest, MemoryBudgetTripsAndSticks) {
  GovernorLimits limits;
  limits.memory_limit_bytes = 1000;
  QueryGovernor governor(limits);
  EXPECT_TRUE(governor.ChargeMemory(600).ok());
  Status trip = governor.ChargeMemory(500);
  EXPECT_EQ(trip.code(), StatusCode::kResourceExhausted);
  // Sticky: even a tiny charge keeps failing after the trip.
  EXPECT_FALSE(governor.ChargeMemory(1).ok());
  EXPECT_EQ(governor.memory_trips(), 2u);
  EXPECT_TRUE(governor.tripped());
}

TEST(GovernorTest, ReleaseAllowsReuseBeforeTrip) {
  GovernorLimits limits;
  limits.memory_limit_bytes = 1000;
  QueryGovernor governor(limits);
  EXPECT_TRUE(governor.ChargeMemory(800).ok());
  governor.ReleaseMemory(800);
  EXPECT_EQ(governor.memory_in_use(), 0u);
  EXPECT_TRUE(governor.ChargeMemory(900).ok());
  EXPECT_EQ(governor.peak_memory_bytes(), 900u);
}

TEST(GovernorTest, RowBudgetTrips) {
  GovernorLimits limits;
  limits.row_limit = 10;
  QueryGovernor governor(limits);
  EXPECT_TRUE(governor.ChargeRows(10).ok());
  EXPECT_EQ(governor.ChargeRows(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.rows_charged(), 11u);
  EXPECT_EQ(governor.row_trips(), 1u);
}

TEST(GovernorTest, TimeBudgetTrips) {
  GovernorLimits limits;
  limits.time_limit_seconds = 2.0;
  QueryGovernor governor(limits);
  EXPECT_TRUE(governor.CheckTime(1.9).ok());
  EXPECT_EQ(governor.CheckTime(2.1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.time_trips(), 1u);
}

TEST(GovernorTest, CancellationIsCooperativeAndTyped) {
  QueryGovernor governor;
  EXPECT_TRUE(governor.CheckCancelled().ok());
  governor.token()->Cancel("user hit ctrl-c");
  Status s = governor.CheckCancelled();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("ctrl-c"), std::string::npos);
  // First reason wins.
  governor.token()->Cancel("other");
  EXPECT_NE(governor.CheckCancelled().message().find("ctrl-c"),
            std::string::npos);
}

TEST(GovernorTest, ReservationReleasesOnScopeExit) {
  GovernorLimits limits;
  limits.memory_limit_bytes = 1000;
  QueryGovernor governor(limits);
  {
    MemoryReservation reservation(&governor);
    EXPECT_TRUE(reservation.Grow(400).ok());
    EXPECT_TRUE(reservation.Grow(300).ok());
    EXPECT_EQ(reservation.reserved_bytes(), 700u);
    EXPECT_EQ(governor.memory_in_use(), 700u);
  }
  EXPECT_EQ(governor.memory_in_use(), 0u);
  EXPECT_EQ(governor.peak_memory_bytes(), 700u);
}

TEST(GovernorTest, ReservationPropagatesTrip) {
  GovernorLimits limits;
  limits.memory_limit_bytes = 100;
  QueryGovernor governor(limits);
  MemoryReservation reservation(&governor);
  EXPECT_EQ(reservation.Grow(200).code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, NullGovernorReservationIsUnlimited) {
  MemoryReservation reservation(nullptr);
  EXPECT_TRUE(reservation.Grow(1ull << 50).ok());
  reservation.Release();  // must not crash
}

TEST(GovernorTest, PublishMetricsExportsAccounting) {
  GovernorLimits limits;
  limits.row_limit = 5;
  QueryGovernor governor(limits);
  EXPECT_TRUE(governor.ChargeMemory(123).ok());
  EXPECT_TRUE(governor.ChargeRows(5).ok());
  (void)governor.ChargeRows(1);  // trip
  obs::MetricsRegistry metrics;
  governor.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetGauge("governor.peak_memory_bytes")->value(), 123.0);
  EXPECT_EQ(metrics.GetGauge("governor.rows_charged")->value(), 6.0);
  EXPECT_EQ(metrics.GetCounter("governor.row_trips")->value(), 1u);
  governor.PublishMetrics(nullptr);  // no-op, must not crash
}

}  // namespace
}  // namespace fault
}  // namespace robustqo
