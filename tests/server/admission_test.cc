// Admission control: strict-FIFO waves under a concurrency cap, typed
// rejections, and the no-starvation property (every queued request is
// admitted after finitely many completions).

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "server/admission.h"

namespace robustqo {
namespace server {
namespace {

std::vector<uint64_t> Tickets(const std::vector<AdmissionTicket>& wave) {
  std::vector<uint64_t> out;
  for (const AdmissionTicket& t : wave) out.push_back(t.ticket);
  return out;
}

TEST(AdmissionTest, WavesAdmitInFifoOrderUnderConcurrencyCap) {
  AdmissionConfig config;
  config.max_concurrent = 2;
  AdmissionController admission(config);

  std::vector<uint64_t> submitted;
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> ticket = admission.Submit(/*session=*/1);
    ASSERT_TRUE(ticket.ok());
    submitted.push_back(ticket.value());
  }

  std::vector<AdmissionTicket> wave = admission.AdmitWave();
  EXPECT_EQ(Tickets(wave), (std::vector<uint64_t>{submitted[0], submitted[1]}));
  EXPECT_EQ(admission.in_flight(), 2u);
  EXPECT_EQ(admission.queue_depth(), 3u);
  // The cap holds until something completes.
  EXPECT_TRUE(admission.AdmitWave().empty());

  ASSERT_TRUE(admission.Complete(submitted[0]).ok());
  wave = admission.AdmitWave();
  EXPECT_EQ(Tickets(wave), (std::vector<uint64_t>{submitted[2]}));
}

TEST(AdmissionTest, EveryRequestIsEventuallyAdmittedInOrder) {
  // No starvation: with a cap of 1 and completions after every wave, the
  // admitted order is exactly the submission order.
  AdmissionConfig config;
  config.max_concurrent = 1;
  AdmissionController admission(config);

  std::vector<uint64_t> submitted;
  for (int i = 0; i < 32; ++i) {
    submitted.push_back(admission.Submit(1).value());
  }
  std::vector<uint64_t> admitted;
  size_t waves = 0;
  while (admitted.size() < submitted.size()) {
    ASSERT_LT(waves++, 64u) << "admission must make progress every wave";
    for (const AdmissionTicket& t : admission.AdmitWave()) {
      admitted.push_back(t.ticket);
      ASSERT_TRUE(admission.Complete(t.ticket).ok());
    }
  }
  EXPECT_EQ(admitted, submitted);
  EXPECT_EQ(admission.stats().completed, 32u);
  // Everyone but the first waited at least one wave.
  EXPECT_EQ(admission.stats().waited, 31u);
}

TEST(AdmissionTest, FullQueueRejectsTyped) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.max_queue_depth = 2;
  AdmissionController admission(config);

  ASSERT_TRUE(admission.Submit(1).ok());
  ASSERT_TRUE(admission.Submit(1).ok());
  Result<uint64_t> rejected = admission.Submit(1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.stats().rejected_queue_full, 1u);
}

TEST(AdmissionTest, EnqueueFaultSheds) {
  fault::FaultInjector injector(7);
  injector.Arm(fault::sites::kAdmissionEnqueue, fault::FaultSpec::FirstN(1));

  AdmissionController admission;
  admission.set_fault_injector(&injector);

  Result<uint64_t> shed = admission.Submit(1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.stats().rejected_fault, 1u);

  // The fault only fired on the first probe; service resumes.
  EXPECT_TRUE(admission.Submit(1).ok());
}

TEST(AdmissionTest, PublishMetricsIsIdempotent) {
  AdmissionController admission;
  const uint64_t ticket = admission.Submit(1).value();
  admission.AdmitWave();
  ASSERT_TRUE(admission.Complete(ticket).ok());

  obs::MetricsRegistry metrics;
  admission.PublishMetrics(&metrics);
  admission.PublishMetrics(&metrics);  // must not double-count
  EXPECT_DOUBLE_EQ(
      metrics.GetCounter("server.admission.submitted")->value(), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetCounter("server.admission.admitted")->value(), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetCounter("server.admission.completed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("server.admission.in_flight")->value(), 0.0);
  EXPECT_DOUBLE_EQ(
      metrics.GetGauge("server.admission.peak_in_flight")->value(), 1.0);
}

}  // namespace
}  // namespace server
}  // namespace robustqo
