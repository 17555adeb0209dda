#include "server/admission.h"

#include <algorithm>

#include "util/string_util.h"

namespace robustqo {
namespace server {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

Result<uint64_t> AdmissionController::Submit(SessionId session) {
  ++stats_.submitted;
  if (fault_ != nullptr) {
    Status shed = fault_->Check(fault::sites::kAdmissionEnqueue);
    if (!shed.ok()) {
      ++stats_.rejected_fault;
      return shed;
    }
  }
  if (config_.max_queue_depth > 0 && queue_.size() >= config_.max_queue_depth) {
    ++stats_.rejected_queue_full;
    return Status::ResourceExhausted(
        StrPrintf("admission queue full (%zu queued, limit %zu)",
                  queue_.size(), config_.max_queue_depth));
  }
  AdmissionTicket ticket;
  ticket.ticket = next_ticket_++;
  ticket.session = session;
  queue_.push_back(ticket);
  stats_.peak_queue_depth = std::max<uint64_t>(stats_.peak_queue_depth,
                                               queue_.size());
  return ticket.ticket;
}

std::vector<AdmissionTicket> AdmissionController::AdmitWave() {
  ++stats_.waves;
  std::vector<AdmissionTicket> admitted;
  while (!queue_.empty()) {
    if (config_.max_concurrent > 0 &&
        in_flight_.size() >= config_.max_concurrent) {
      break;
    }
    AdmissionTicket ticket = queue_.front();
    queue_.pop_front();
    in_flight_.push_back(ticket);
    admitted.push_back(ticket);
    ++stats_.admitted;
    if (ticket.waves_waited > 0) ++stats_.waited;
  }
  for (AdmissionTicket& waiting : queue_) ++waiting.waves_waited;
  stats_.peak_in_flight =
      std::max<uint64_t>(stats_.peak_in_flight, in_flight_.size());
  return admitted;
}

Status AdmissionController::Complete(uint64_t ticket) {
  for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
    if (it->ticket == ticket) {
      in_flight_.erase(it);
      ++stats_.completed;
      return Status::OK();
    }
  }
  return Status::NotFound(StrPrintf(
      "ticket %llu is not in flight", static_cast<unsigned long long>(ticket)));
}

void AdmissionController::PublishMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetCounter("server.admission.submitted")
      ->Increment(stats_.submitted -
                  metrics->GetCounter("server.admission.submitted")->value());
  metrics->GetCounter("server.admission.admitted")
      ->Increment(stats_.admitted -
                  metrics->GetCounter("server.admission.admitted")->value());
  metrics->GetCounter("server.admission.rejected.queue_full")
      ->Increment(
          stats_.rejected_queue_full -
          metrics->GetCounter("server.admission.rejected.queue_full")->value());
  metrics->GetCounter("server.admission.rejected.fault")
      ->Increment(
          stats_.rejected_fault -
          metrics->GetCounter("server.admission.rejected.fault")->value());
  metrics->GetCounter("server.admission.completed")
      ->Increment(stats_.completed -
                  metrics->GetCounter("server.admission.completed")->value());
  metrics->GetCounter("server.admission.waited")
      ->Increment(stats_.waited -
                  metrics->GetCounter("server.admission.waited")->value());
  metrics->GetCounter("server.admission.waves")
      ->Increment(stats_.waves -
                  metrics->GetCounter("server.admission.waves")->value());
  metrics->GetGauge("server.admission.queue_depth")
      ->Set(static_cast<double>(queue_.size()));
  metrics->GetGauge("server.admission.in_flight")
      ->Set(static_cast<double>(in_flight_.size()));
  metrics->GetGauge("server.admission.peak_in_flight")
      ->Set(static_cast<double>(stats_.peak_in_flight));
  metrics->GetGauge("server.admission.peak_queue_depth")
      ->Set(static_cast<double>(stats_.peak_queue_depth));
}

}  // namespace server
}  // namespace robustqo
