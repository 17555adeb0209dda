#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace robustqo {
namespace obs {
namespace {

RequestTrace MakeTrace(uint64_t request_id, double service_seconds,
                       bool failed = false) {
  RequestTrace trace;
  trace.request_id = request_id;
  trace.session_id = 1;
  trace.session_label = "s";
  trace.ticket = request_id;
  trace.fingerprint = 0xABCDu;
  trace.service_seconds = service_seconds;
  trace.failed = failed;
  if (failed) trace.status = "Unavailable";
  Tracer tracer;
  const uint64_t span = tracer.BeginSpan("server", "request");
  tracer.EndSpan(span);
  trace.events = tracer.ReleaseEvents();
  return trace;
}

std::vector<uint64_t> RetainedIds(const FlightRecorder& recorder) {
  std::vector<uint64_t> ids;
  for (const RequestTrace* trace : recorder.Snapshot()) {
    ids.push_back(trace->request_id);
  }
  return ids;
}

TEST(FlightRecorderTest, RetainsIncidentsAndEvictsOldestFirst) {
  FlightRecorderConfig config;
  config.incident_capacity = 2;
  config.slowest_k = 0;
  FlightRecorder recorder(config);
  recorder.Offer(MakeTrace(1, 0.1, /*failed=*/true));
  recorder.Offer(MakeTrace(2, 0.1, /*failed=*/true));
  recorder.Offer(MakeTrace(3, 0.1, /*failed=*/false));  // not an incident
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{1, 2}));
  recorder.Offer(MakeTrace(4, 0.1, /*failed=*/true));
  // FIFO ring: the oldest incident (request 1) is evicted.
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{2, 4}));
  EXPECT_EQ(recorder.stats().offered, 4u);
  EXPECT_EQ(recorder.stats().retained_incident, 3u);
  EXPECT_EQ(recorder.stats().evicted_incident, 1u);
  EXPECT_EQ(recorder.stats().retained_slow, 0u);
}

TEST(FlightRecorderTest, GovernorTripAndFaultFiresAreIncidents) {
  RequestTrace tripped = MakeTrace(1, 0.0);
  tripped.governor_tripped = true;
  EXPECT_TRUE(tripped.IsIncident());
  RequestTrace faulted = MakeTrace(2, 0.0);
  faulted.fault_fires = 3;
  EXPECT_TRUE(faulted.IsIncident());
  EXPECT_FALSE(MakeTrace(3, 0.0).IsIncident());
}

TEST(FlightRecorderTest, KeepsSlowestKAndEvictsLeastSlow) {
  FlightRecorderConfig config;
  config.incident_capacity = 0;
  config.slowest_k = 2;
  FlightRecorder recorder(config);
  recorder.Offer(MakeTrace(1, 1.0));
  recorder.Offer(MakeTrace(2, 3.0));
  recorder.Offer(MakeTrace(3, 2.0));  // bumps request 1 (1.0s is least slow)
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{2, 3}));
  recorder.Offer(MakeTrace(4, 0.5));  // slower than nothing retained
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(recorder.stats().retained_slow, 3u);
  EXPECT_EQ(recorder.stats().evicted_slow, 1u);
}

TEST(FlightRecorderTest, SlowTiesBreakTowardLowerRequestId) {
  FlightRecorderConfig config;
  config.incident_capacity = 0;
  config.slowest_k = 2;
  FlightRecorder recorder(config);
  recorder.Offer(MakeTrace(5, 1.0));
  recorder.Offer(MakeTrace(7, 1.0));
  // Same seconds, lower id: wins the slot from the higher-id incumbent.
  recorder.Offer(MakeTrace(3, 1.0));
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{5, 3}));
  // Same seconds, higher id than both incumbents: loses.
  recorder.Offer(MakeTrace(9, 1.0));
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{5, 3}));
}

TEST(FlightRecorderTest, WouldRetainSlowMatchesOfferOutcome) {
  FlightRecorderConfig config;
  config.incident_capacity = 0;
  config.slowest_k = 2;
  FlightRecorder recorder(config);
  EXPECT_TRUE(recorder.WouldRetainSlow(0.0, 1));  // slots free
  recorder.Offer(MakeTrace(5, 1.0));
  recorder.Offer(MakeTrace(7, 2.0));
  EXPECT_TRUE(recorder.WouldRetainSlow(1.5, 9));   // beats 1.0
  EXPECT_FALSE(recorder.WouldRetainSlow(0.9, 9));  // loses to 1.0
  EXPECT_TRUE(recorder.WouldRetainSlow(1.0, 3));   // tie, lower id wins
  EXPECT_FALSE(recorder.WouldRetainSlow(1.0, 9));  // tie, higher id loses
  EXPECT_FALSE(recorder.WouldRetainSlow(1.0, 5));  // full tie: incumbent wins
}

TEST(FlightRecorderTest, DualReasonTraceIsStoredOnceAndSurvivesOneEviction) {
  FlightRecorderConfig config;
  config.incident_capacity = 1;
  config.slowest_k = 1;
  FlightRecorder recorder(config);
  recorder.Offer(MakeTrace(1, 5.0, /*failed=*/true));  // incident + slowest
  EXPECT_EQ(recorder.size(), 1u);
  // A new slower trace takes the slow slot; request 1 stays as incident.
  recorder.Offer(MakeTrace(2, 9.0));
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{1, 2}));
  // A new incident takes the ring slot; request 1 now holds nothing.
  recorder.Offer(MakeTrace(3, 0.1, /*failed=*/true));
  EXPECT_EQ(RetainedIds(recorder), (std::vector<uint64_t>{2, 3}));
}

TEST(FlightRecorderTest, DumpsAreDeterministic) {
  FlightRecorderConfig config;
  config.incident_capacity = 4;
  config.slowest_k = 2;
  const auto build = [&config]() {
    FlightRecorder recorder(config);
    // Fast failure: starts incident+slow, loses its slow slot to request 3.
    recorder.Offer(MakeTrace(1, 0.1, /*failed=*/true));
    recorder.Offer(MakeTrace(2, 2.5));
    recorder.Offer(MakeTrace(3, 0.5));
    return recorder;
  };
  const FlightRecorder a = build();
  const FlightRecorder b = build();
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.ToChromeTrace(), b.ToChromeTrace());
  EXPECT_EQ(a.ReportText(), b.ReportText());
  EXPECT_NE(a.ToJson().find("\"retained\":[\"incident\"]"), std::string::npos);
  EXPECT_NE(a.ToJson().find("\"retained\":[\"slow\"]"), std::string::npos);
}

TEST(FlightRecorderTest, ChromeTraceGroupsLanesBySession) {
  FlightRecorderConfig config;
  config.incident_capacity = 4;
  FlightRecorder recorder(config);
  RequestTrace second = MakeTrace(2, 0.1, /*failed=*/true);
  second.session_id = 9;
  second.session_label = "other";
  recorder.Offer(std::move(second));
  recorder.Offer(MakeTrace(1, 0.1, /*failed=*/true));
  const std::string json = recorder.ToChromeTrace();
  // Metadata names both sessions and both request lanes.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("other"), std::string::npos);
  // Session 1's lane sorts before session 9's even though offered later.
  EXPECT_LT(json.find("request 1 [Unavailable]"),
            json.find("request 2 [Unavailable]"));
}

TEST(FlightRecorderTest, PublishMetricsIsIdempotent) {
  FlightRecorderConfig config;
  config.incident_capacity = 1;
  config.slowest_k = 1;
  FlightRecorder recorder(config);
  recorder.Offer(MakeTrace(1, 1.0, /*failed=*/true));
  recorder.Offer(MakeTrace(2, 2.0, /*failed=*/true));
  MetricsRegistry metrics;
  recorder.PublishMetrics(&metrics);
  recorder.PublishMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("server.flight_recorder.offered")->value(), 2u);
  EXPECT_EQ(
      metrics.GetCounter("server.flight_recorder.retained.incident")->value(),
      2u);
  EXPECT_EQ(
      metrics.GetCounter("server.flight_recorder.evicted.incident")->value(),
      1u);
  // Request 1 lost both its ring slot and its slow slot to request 2, so
  // only one trace remains stored.
  EXPECT_EQ(metrics.GetGauge("server.flight_recorder.size")->value(), 1.0);
}

TEST(FlightRecorderTest, ClearResetsEverything) {
  FlightRecorder recorder({/*enabled=*/true, /*incident_capacity=*/4,
                           /*slowest_k=*/4});
  recorder.Offer(MakeTrace(1, 1.0, /*failed=*/true));
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.stats().offered, 0u);
  EXPECT_EQ(recorder.ToJson(),
            FlightRecorder({/*enabled=*/true, /*incident_capacity=*/4,
                            /*slowest_k=*/4})
                .ToJson());
}

}  // namespace
}  // namespace obs
}  // namespace robustqo
