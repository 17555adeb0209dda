// Property test: ExecContext::TickRows charges a run of rows in closed form
// with exactly the outcome of one Tick(1, row_bytes) per row — the same
// status, rows_charged, memory, peak, trip counters and next checkpoint —
// over random limits, pre-charged governors, run lengths, row widths,
// time budgets and cancelled tokens.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exec/operator.h"
#include "fault/governor.h"
#include "util/macros.h"
#include "util/rng.h"

namespace robustqo {
namespace exec {
namespace {

// The row-at-a-time definition TickRows must reproduce.
Status TickRowsReference(ExecContext* ctx, uint64_t rows, uint64_t row_bytes) {
  for (uint64_t i = 0; i < rows; ++i) {
    RQO_RETURN_NOT_OK(ctx->Tick(1, row_bytes));
  }
  return Status::OK();
}

// Rows until `ctx` next checkpoints, observed by ticking single rows
// against a fresh governor whose token is cancelled.
uint64_t RowsToNextCheckpoint(ExecContext* ctx) {
  fault::QueryGovernor probe;
  probe.token()->Cancel("probe");
  fault::QueryGovernor* saved = ctx->governor;
  ctx->governor = &probe;
  uint64_t rows = 1;
  while (ctx->Tick(1, 0).ok()) ++rows;
  ctx->governor = saved;
  return rows;
}

void ExpectSameGovernor(const fault::QueryGovernor& got,
                        const fault::QueryGovernor& want) {
  EXPECT_EQ(got.rows_charged(), want.rows_charged());
  EXPECT_EQ(got.memory_in_use(), want.memory_in_use());
  EXPECT_EQ(got.peak_memory_bytes(), want.peak_memory_bytes());
  EXPECT_EQ(got.row_trips(), want.row_trips());
  EXPECT_EQ(got.memory_trips(), want.memory_trips());
  EXPECT_EQ(got.time_trips(), want.time_trips());
}

uint64_t RandomRowBytes(Rng* rng) {
  switch (rng->NextBounded(4)) {
    case 0:
      return 0;
    case 1:
      return 8;
    case 2:
      return 40;
    default:
      return 1 + rng->NextBounded(300);
  }
}

TEST(TickRowsPropertyTest, MatchesPerRowTicksOnRandomRuns) {
  Rng rng(20261017);
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    fault::GovernorLimits limits;
    if (rng.NextBernoulli(0.6)) limits.row_limit = rng.NextBounded(3000);
    if (rng.NextBernoulli(0.6)) {
      limits.memory_limit_bytes = rng.NextBounded(200000);
    }
    if (rng.NextBernoulli(0.2)) limits.time_limit_seconds = 1.0;
    fault::QueryGovernor closed_governor(limits);
    fault::QueryGovernor reference_governor(limits);
    ExecContext closed;
    ExecContext reference;
    closed.governor = &closed_governor;
    reference.governor = &reference_governor;

    // Pre-charged state, possibly already over a budget (trips stick).
    if (rng.NextBernoulli(0.5)) {
      const uint64_t rows = rng.NextBounded(limits.row_limit + 50);
      (void)closed_governor.ChargeRows(rows);
      (void)reference_governor.ChargeRows(rows);
    }
    if (rng.NextBernoulli(0.5)) {
      const uint64_t bytes = rng.NextBounded(limits.memory_limit_bytes + 500);
      (void)closed_governor.ChargeMemory(bytes);
      (void)reference_governor.ChargeMemory(bytes);
      const uint64_t released = rng.NextBounded(bytes + 1);
      closed_governor.ReleaseMemory(released);
      reference_governor.ReleaseMemory(released);
    }
    // A random checkpoint position, set by single-row ticks of width 0
    // against an unlimited governor.
    const uint64_t warmup = rng.NextBounded(600);
    fault::QueryGovernor unlimited;
    closed.governor = &unlimited;
    reference.governor = &unlimited;
    for (uint64_t i = 0; i < warmup; ++i) {
      ASSERT_TRUE(closed.Tick(1, 0).ok());
      ASSERT_TRUE(reference.Tick(1, 0).ok());
    }
    closed.governor = &closed_governor;
    reference.governor = &reference_governor;
    if (rng.NextBernoulli(0.15)) {
      closed_governor.token()->Cancel("stop");
      reference_governor.token()->Cancel("stop");
    }
    if (limits.time_limit_seconds > 0.0 && rng.NextBernoulli(0.5)) {
      closed.meter.ChargePenaltySeconds(2.0);
      reference.meter.ChargePenaltySeconds(2.0);
    }

    // A few consecutive runs, as an operator's loop issues them.
    const int runs = 1 + static_cast<int>(rng.NextBounded(4));
    for (int run = 0; run < runs; ++run) {
      const uint64_t rows = rng.NextBernoulli(0.1)
                                ? 0
                                : rng.NextBounded(rng.NextBernoulli(0.5)
                                                      ? 300
                                                      : 2500);
      const uint64_t row_bytes = RandomRowBytes(&rng);
      const Status got = closed.TickRows(rows, row_bytes);
      const Status want = TickRowsReference(&reference, rows, row_bytes);
      ASSERT_EQ(got.code(), want.code())
          << "rows=" << rows << " row_bytes=" << row_bytes;
      EXPECT_EQ(got.message(), want.message());
      ExpectSameGovernor(closed_governor, reference_governor);
      if (!got.ok()) break;
    }
    EXPECT_EQ(RowsToNextCheckpoint(&closed),
              RowsToNextCheckpoint(&reference));
  }
}

TEST(TickRowsPropertyTest, TripsOnTheRowThatCrossesEachBudget) {
  for (const uint64_t row_bytes : {uint64_t{0}, uint64_t{16}}) {
    fault::GovernorLimits limits;
    limits.row_limit = 1000;
    fault::QueryGovernor governor(limits);
    ExecContext ctx;
    ctx.governor = &governor;
    EXPECT_TRUE(ctx.TickRows(1000, row_bytes).ok());
    EXPECT_EQ(ctx.TickRows(5, row_bytes).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(governor.rows_charged(), 1001u);
    EXPECT_EQ(governor.memory_in_use(), 1000 * row_bytes);
    EXPECT_EQ(governor.row_trips(), 1u);
  }
  fault::GovernorLimits limits;
  limits.memory_limit_bytes = 1000;
  fault::QueryGovernor governor(limits);
  ExecContext ctx;
  ctx.governor = &governor;
  // 62 rows of 16 bytes fit in 1000; the 63rd (1008 bytes) trips.
  EXPECT_EQ(ctx.TickRows(100, 16).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.rows_charged(), 63u);
  EXPECT_EQ(governor.memory_in_use(), 63u * 16);
  EXPECT_EQ(governor.peak_memory_bytes(), 63u * 16);
  EXPECT_EQ(governor.memory_trips(), 1u);
}

TEST(TickRowsPropertyTest, CancelledTokenStopsAtTheFirstCheckpoint) {
  fault::QueryGovernor governor;
  ExecContext ctx;
  ctx.governor = &governor;
  ASSERT_TRUE(ctx.TickRows(100, 8).ok());
  governor.token()->Cancel("user abort");
  const Status status = ctx.TickRows(10000, 8);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(status.message(), "user abort");
  // The checkpoint falls on the 256th row overall.
  EXPECT_EQ(governor.rows_charged(), 256u);
  EXPECT_EQ(governor.memory_in_use(), 256u * 8);
}

}  // namespace
}  // namespace exec
}  // namespace robustqo
