#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/exporters.h"
#include "util/stopwatch.h"

namespace robustqo {
namespace obs {
namespace {

TEST(TracerTest, LogicalClockOrdersAllRecords) {
  Tracer tracer;
  const uint64_t outer = tracer.BeginSpan("exec", "outer");
  tracer.Event("exec", "tick");
  const uint64_t inner = tracer.BeginSpan("exec", "inner");
  tracer.EndSpan(inner);
  tracer.EndSpan(outer);
  ASSERT_EQ(tracer.events().size(), 5u);
  for (size_t i = 0; i < tracer.events().size(); ++i) {
    EXPECT_EQ(tracer.events()[i].seq, i);
  }
  EXPECT_EQ(tracer.logical_clock(), 5u);
}

TEST(TracerTest, SpansNestViaParentIds) {
  Tracer tracer;
  const uint64_t outer = tracer.BeginSpan("exec", "outer");
  const uint64_t inner = tracer.BeginSpan("exec", "inner");
  EXPECT_NE(outer, inner);
  EXPECT_EQ(tracer.current_span(), inner);
  tracer.Event("exec", "leaf");
  tracer.EndSpan(inner);
  EXPECT_EQ(tracer.current_span(), outer);
  tracer.EndSpan(outer);
  EXPECT_EQ(tracer.current_span(), 0u);

  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, TraceKind::kSpanBegin);
  EXPECT_EQ(events[0].parent_id, 0u);       // outer is a root span
  EXPECT_EQ(events[1].parent_id, outer);    // inner nests under outer
  EXPECT_EQ(events[2].kind, TraceKind::kEvent);
  EXPECT_EQ(events[2].span_id, inner);      // event inside innermost span
  EXPECT_EQ(events[3].kind, TraceKind::kSpanEnd);
  EXPECT_EQ(events[3].span_id, inner);
  EXPECT_EQ(events[4].span_id, outer);
}

TEST(TracerTest, EndSpanCarriesResultAttributes) {
  Tracer tracer;
  const uint64_t span = tracer.BeginSpan("exec", "scan");
  tracer.EndSpan(span, {{"rows_out", AttrU64(42)}});
  const TraceEvent& end = tracer.events().back();
  ASSERT_EQ(end.attrs.size(), 1u);
  EXPECT_EQ(end.attrs[0].first, "rows_out");
  EXPECT_EQ(end.attrs[0].second, "42");
}

TEST(TracerTest, ClearResetsLogicalClockButNotSpanIds) {
  Tracer tracer;
  const uint64_t first = tracer.BeginSpan("a", "x");
  tracer.EndSpan(first);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.logical_clock(), 0u);
  const uint64_t second = tracer.BeginSpan("a", "y");
  // Span ids stay unique across Clear so records never alias.
  EXPECT_GT(second, first);
  // But the logical clock restarted from zero.
  EXPECT_EQ(tracer.events().front().seq, 0u);
}

TEST(TracerTest, JsonIsDeterministicWithoutWallTime) {
  auto record = [](Tracer* t) {
    const uint64_t span = t->BeginSpan("optimizer", "optimize",
                                       {{"tables", AttrU64(3)}});
    t->Event("estimator", "robust", {{"selectivity", AttrF(0.125)}});
    t->EndSpan(span, {{"candidates", AttrU64(7)}});
  };
  Tracer a;
  Tracer b;
  record(&a);
  record(&b);
  EXPECT_EQ(ToChromeTrace(a.events()), ToChromeTrace(b.events()));
  // Timestamps are the logical clock, not wall time.
  const std::string json = ToChromeTrace(a.events());
  EXPECT_NE(json.find("\"ts\":0,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":2,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"optimizer\""), std::string::npos);
  EXPECT_NE(json.find("\"selectivity\""), std::string::npos);
}

TEST(TracerTest, JsonRoundTripsAttributeOrderAndEscaping) {
  Tracer tracer;
  tracer.Event("estimator", "robust",
               {{"predicate", "a = \"b\"\n"}, {"k", AttrU64(1)}});
  const std::string json = ToChromeTrace(tracer.events());
  // Quotes and newline escaped, attribute order preserved.
  EXPECT_NE(json.find("a = \\\"b\\\"\\n"), std::string::npos) << json;
  EXPECT_LT(json.find("\"predicate\""), json.find("\"k\""));
}

TEST(TracerTest, WallTimeComesFromInjectedClock) {
  ManualClock clock;
  Tracer tracer(&clock);
  clock.AdvanceSeconds(1.0);
  tracer.Event("exec", "late");
  EXPECT_DOUBLE_EQ(tracer.events().back().wall_micros, 1e6);
  const std::string json =
      ToChromeTrace(tracer.events(), /*use_wall_time=*/true);
  EXPECT_NE(json.find("\"ts\":1000000.000,"), std::string::npos) << json;
}

TEST(SpanGuardTest, BeginsAndEndsAroundScope) {
  Tracer tracer;
  {
    SpanGuard guard(&tracer, "exec", "scoped");
    guard.Attr("rows", AttrU64(9));
    EXPECT_EQ(tracer.current_span(), guard.span_id());
  }
  EXPECT_EQ(tracer.current_span(), 0u);
  ASSERT_EQ(tracer.events().size(), 2u);
  const TraceEvent& end = tracer.events().back();
  EXPECT_EQ(end.kind, TraceKind::kSpanEnd);
  ASSERT_EQ(end.attrs.size(), 1u);
  EXPECT_EQ(end.attrs[0].second, "9");
}

TEST(SpanGuardTest, NullTracerIsANoOp) {
  SpanGuard guard(nullptr, "exec", "ignored");
  guard.Attr("k", "v");  // must not crash
  EXPECT_EQ(guard.span_id(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace robustqo
