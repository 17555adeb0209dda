// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Query governor: per-query resource budgets (memory, materialized rows,
// simulated execution time) plus a cooperative CancellationToken. Operators
// account their work against the governor inside their Run() loops and bail
// out with a typed Status (kResourceExhausted / kCancelled) the moment a
// budget trips — the query dies cleanly, never the process. A governor is
// cheap enough to construct per query; limits of 0 mean "unlimited", so a
// default-constructed governor never trips.

#ifndef ROBUSTQO_FAULT_GOVERNOR_H_
#define ROBUSTQO_FAULT_GOVERNOR_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace robustqo {
namespace fault {

/// Per-query budgets; 0 (or 0.0) disables the corresponding limit.
struct GovernorLimits {
  /// Bytes of operator workspace + the modelled size of operator outputs
  /// (intermediates included, whether or not the executor gathers them).
  uint64_t memory_limit_bytes = 0;
  /// Total output rows across all operators (intermediates included).
  uint64_t row_limit = 0;
  /// Simulated execution seconds (the cost meter's clock).
  double time_limit_seconds = 0.0;

  bool Unlimited() const {
    return memory_limit_bytes == 0 && row_limit == 0 &&
           time_limit_seconds == 0.0;
  }
};

/// Cooperative cancellation flag, checked by operators between units of
/// work. Cancel() never interrupts anything by force.
class CancellationToken {
 public:
  void Cancel(std::string reason) {
    if (!cancelled_) {
      cancelled_ = true;
      reason_ = std::move(reason);
    }
  }
  bool cancelled() const { return cancelled_; }
  const std::string& reason() const { return reason_; }

 private:
  bool cancelled_ = false;
  std::string reason_;
};

/// Enforces GovernorLimits for one query execution.
class QueryGovernor {
 public:
  QueryGovernor() = default;
  explicit QueryGovernor(GovernorLimits limits) : limits_(limits) {}

  const GovernorLimits& limits() const { return limits_; }
  CancellationToken* token() { return &token_; }

  /// Accounts `bytes` of operator memory; kResourceExhausted once the
  /// budget is exceeded (the trip is sticky: later checks keep failing).
  Status ChargeMemory(uint64_t bytes);
  /// Returns workspace memory (transient structures released at operator
  /// end; materialized outputs are never released within a query).
  void ReleaseMemory(uint64_t bytes);

  /// Accounts `rows` materialized rows.
  Status ChargeRows(uint64_t rows);

  /// How many more rows of `row_bytes` each ChargeRows(1) plus
  /// ChargeMemory(row_bytes) could account before the row or memory
  /// budget trips (UINT64_MAX when neither limit applies).
  uint64_t RowsWithinBudget(uint64_t row_bytes) const;

  /// Checks the simulated-time budget against `simulated_seconds`.
  Status CheckTime(double simulated_seconds);

  /// kCancelled when the token was cancelled, OK otherwise.
  Status CheckCancelled() const;

  // -- Accounting snapshot (for EXPLAIN ANALYZE / metrics) --
  uint64_t memory_in_use() const { return memory_in_use_; }
  uint64_t peak_memory_bytes() const { return peak_memory_bytes_; }
  uint64_t rows_charged() const { return rows_charged_; }
  uint64_t memory_trips() const { return memory_trips_; }
  uint64_t row_trips() const { return row_trips_; }
  uint64_t time_trips() const { return time_trips_; }
  bool tripped() const {
    return memory_trips_ + row_trips_ + time_trips_ > 0;
  }

  /// Publishes governor.* counters/gauges into `metrics` (no-op on null).
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

 private:
  GovernorLimits limits_;
  CancellationToken token_;
  uint64_t memory_in_use_ = 0;
  uint64_t peak_memory_bytes_ = 0;
  uint64_t rows_charged_ = 0;
  uint64_t memory_trips_ = 0;
  uint64_t row_trips_ = 0;
  uint64_t time_trips_ = 0;
};

/// RAII workspace reservation: memory charged through a reservation is
/// released when the reservation leaves scope (hash tables, sort buffers).
class MemoryReservation {
 public:
  explicit MemoryReservation(QueryGovernor* governor)
      : governor_(governor) {}
  ~MemoryReservation() { Release(); }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// Charges `bytes` more workspace; propagates a trip as a typed error.
  Status Grow(uint64_t bytes);
  /// Early release (idempotent).
  void Release();
  uint64_t reserved_bytes() const { return reserved_; }

 private:
  QueryGovernor* governor_;  // nullable: null governor = unlimited
  uint64_t reserved_ = 0;
};

}  // namespace fault
}  // namespace robustqo

#endif  // ROBUSTQO_FAULT_GOVERNOR_H_
