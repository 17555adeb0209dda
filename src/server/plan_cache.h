// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// PlanCache: the PREPARE/EXECUTE plan store of the query service. Entries
// are keyed by (canonical statement fingerprint, confidence threshold T%,
// estimator kind) — the three inputs that change which plan the robust
// optimizer picks — and each entry remembers the statistics epoch it was
// planned under. A lookup whose entry predates the current epoch discards
// it, so every statistics rebuild — UPDATE STATISTICS, or the service's
// end-of-wave rebuild after committed writes or a drift flag —
// invalidates every cached plan with one integer bump. The epoch is the
// only staleness signal the cache reads.
//
// Bounded LRU, same list+index shape as perf::InverseBetaCache. Lookups
// probe the server.plan_cache.lookup fault site and degrade a fired probe
// to a miss (re-planning is always safe); the degradation is counted, not
// hidden. Not thread-safe — the QueryService uses it only from its
// sequential planning phase.

#ifndef ROBUSTQO_SERVER_PLAN_CACHE_H_
#define ROBUSTQO_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/database.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "optimizer/plan.h"
#include "optimizer/query.h"

namespace robustqo {
namespace server {

/// Canonical 64-bit fingerprint of a whole QuerySpec: table set, per-table
/// predicates (via perf::FingerprintExpr, so AND/OR child order never
/// splits the cache), aggregates, grouping, projection, ORDER BY and
/// LIMIT. Table order in the FROM list is canonicalised away; everything
/// semantically significant feeds the hash. Stable across processes.
uint64_t FingerprintQuery(const opt::QuerySpec& query);

/// Fingerprint of a raw statement's text (same mixing primitives, distinct
/// domain tag). DML statements never hit the plan cache, but traces and
/// the fingerprint ledger still key writes by fingerprint, so writes get
/// one too.
uint64_t FingerprintStatementText(const std::string& statement);

/// Cache key: fingerprint plus the planning knobs that select the plan.
struct PlanCacheKey {
  uint64_t fingerprint = 0;
  /// Bit pattern of the effective T% — two sessions at different
  /// thresholds must never share a plan.
  uint64_t threshold_bits = 0;
  int estimator = 0;

  static PlanCacheKey Make(uint64_t fingerprint, double threshold,
                           core::EstimatorKind kind);

  /// "histogram" or "robust", as reports and provenance records name it.
  const char* estimator_name() const;

  bool operator<(const PlanCacheKey& o) const {
    return std::tie(fingerprint, threshold_bits, estimator) <
           std::tie(o.fingerprint, o.threshold_bits, o.estimator);
  }
};

/// Hit/miss/invalidations, exported as perf.cache.plan.* metrics.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions_lru = 0;
  uint64_t invalidated_epoch = 0;
  /// Lookups the fault site degraded to misses (also counted in misses).
  uint64_t degraded_fault = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Why a lookup resolved the way it did — the plan-cache attribute a
/// request's trace records (a postmortem cares whether a "miss" was a
/// cold cache, stale statistics or a degraded shard).
enum class PlanCacheOutcome {
  kHit,
  kMiss,
  kStaleEpoch,     ///< entry existed but predated `current_epoch`
  kDegradedFault,  ///< server.plan_cache.lookup fault fired
};

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome);

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64);

  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }

  /// The cached plan for `key` if present and planned at `current_epoch`;
  /// nullptr otherwise, with the typed reason in `outcome` (never null).
  /// An entry from an older epoch is dropped (counted as
  /// invalidated_epoch). Probes the server.plan_cache.lookup fault site
  /// first; a firing degrades to a miss. Every non-hit outcome counts as a
  /// miss in stats(). A hit refreshes the entry's LRU position.
  std::shared_ptr<const opt::PlannedQuery> Lookup(const PlanCacheKey& key,
                                                  uint64_t current_epoch,
                                                  PlanCacheOutcome* outcome);

  /// Caches `plan` for `key` at `epoch`, evicting the least recently used
  /// entry when full; replaces any existing entry for the same key.
  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const opt::PlannedQuery> plan, uint64_t epoch);

  const PlanCacheStats& stats() const { return stats_; }

  /// Fault injector probed at server.plan_cache.lookup (borrowed,
  /// nullable = lookups never degrade).
  void set_fault_injector(fault::FaultInjector* fault) { fault_ = fault; }

  /// Publishes perf.cache.plan.* counters and gauges (no-op on null).
  void PublishMetrics(obs::MetricsRegistry* metrics) const;

  /// Aligned text summary for the shell's `.plancache`.
  std::string ReportText() const;

 private:
  struct Entry {
    PlanCacheKey key;
    std::shared_ptr<const opt::PlannedQuery> plan;
    uint64_t epoch = 0;
    uint64_t hits = 0;
  };

  void Erase(std::map<PlanCacheKey, std::list<Entry>::iterator>::iterator it);

  size_t capacity_;
  fault::FaultInjector* fault_ = nullptr;
  std::list<Entry> lru_;  // front = most recently used
  std::map<PlanCacheKey, std::list<Entry>::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace server
}  // namespace robustqo

#endif  // ROBUSTQO_SERVER_PLAN_CACHE_H_
