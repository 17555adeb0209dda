#include "fault/governor.h"

#include <algorithm>

#include "util/string_util.h"

namespace robustqo {
namespace fault {

Status QueryGovernor::ChargeMemory(uint64_t bytes) {
  memory_in_use_ += bytes;
  peak_memory_bytes_ = std::max(peak_memory_bytes_, memory_in_use_);
  if (limits_.memory_limit_bytes != 0 &&
      memory_in_use_ > limits_.memory_limit_bytes) {
    ++memory_trips_;
    return Status::ResourceExhausted(StrPrintf(
        "query memory budget exceeded: %llu of %llu bytes in use",
        static_cast<unsigned long long>(memory_in_use_),
        static_cast<unsigned long long>(limits_.memory_limit_bytes)));
  }
  return Status::OK();
}

void QueryGovernor::ReleaseMemory(uint64_t bytes) {
  memory_in_use_ -= std::min(memory_in_use_, bytes);
}

Status QueryGovernor::ChargeRows(uint64_t rows) {
  rows_charged_ += rows;
  if (limits_.row_limit != 0 && rows_charged_ > limits_.row_limit) {
    ++row_trips_;
    return Status::ResourceExhausted(StrPrintf(
        "query row budget exceeded: %llu rows materialized (limit %llu)",
        static_cast<unsigned long long>(rows_charged_),
        static_cast<unsigned long long>(limits_.row_limit)));
  }
  return Status::OK();
}

uint64_t QueryGovernor::RowsWithinBudget(uint64_t row_bytes) const {
  uint64_t rows = UINT64_MAX;
  if (limits_.row_limit != 0) {
    rows = limits_.row_limit - std::min(limits_.row_limit, rows_charged_);
  }
  if (limits_.memory_limit_bytes != 0 && row_bytes != 0) {
    const uint64_t headroom =
        limits_.memory_limit_bytes -
        std::min(limits_.memory_limit_bytes, memory_in_use_);
    rows = std::min(rows, headroom / row_bytes);
  }
  return rows;
}

Status QueryGovernor::CheckTime(double simulated_seconds) {
  if (limits_.time_limit_seconds != 0.0 &&
      simulated_seconds > limits_.time_limit_seconds) {
    ++time_trips_;
    return Status::ResourceExhausted(
        StrPrintf("query time budget exceeded: %.3f simulated seconds "
                  "(limit %.3f)",
                  simulated_seconds, limits_.time_limit_seconds));
  }
  return Status::OK();
}

Status QueryGovernor::CheckCancelled() const {
  if (token_.cancelled()) {
    return Status::Cancelled(token_.reason().empty() ? "query cancelled"
                                                     : token_.reason());
  }
  return Status::OK();
}

void QueryGovernor::PublishMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetGauge("governor.peak_memory_bytes")
      ->Set(static_cast<double>(peak_memory_bytes_));
  metrics->GetGauge("governor.rows_charged")
      ->Set(static_cast<double>(rows_charged_));
  if (memory_trips_ > 0) {
    metrics->GetCounter("governor.memory_trips")->Increment(memory_trips_);
  }
  if (row_trips_ > 0) {
    metrics->GetCounter("governor.row_trips")->Increment(row_trips_);
  }
  if (time_trips_ > 0) {
    metrics->GetCounter("governor.time_trips")->Increment(time_trips_);
  }
  if (token_.cancelled()) {
    metrics->GetCounter("governor.cancelled")->Increment();
  }
}

Status MemoryReservation::Grow(uint64_t bytes) {
  if (governor_ == nullptr) return Status::OK();
  reserved_ += bytes;
  return governor_->ChargeMemory(bytes);
}

void MemoryReservation::Release() {
  if (governor_ != nullptr && reserved_ > 0) {
    governor_->ReleaseMemory(reserved_);
  }
  reserved_ = 0;
}

}  // namespace fault
}  // namespace robustqo
