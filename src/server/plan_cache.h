// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// PlanCache: the PREPARE/EXECUTE plan store of the query service. Entries
// are keyed by (canonical statement fingerprint, confidence threshold T%,
// estimator kind) — the three inputs that change which plan the robust
// optimizer picks — and each entry remembers the statistics epoch it was
// planned under. A lookup whose entry predates the current epoch discards
// it (UPDATE STATISTICS invalidates every cached plan with one integer
// bump), and fingerprints the estimation-quality monitor flags as drifted
// are both evicted and blocked from re-insertion until statistics are
// rebuilt: a plan chosen for a distribution the data no longer follows is
// exactly the brittleness the paper's Section 5 guards against, so the
// cache refuses to keep serving it. Drift blocks are epoch-scoped: each
// records the statistics epoch it was placed under, and the first lookup
// or insert at a later epoch lifts it automatically — so a background
// statistics rebuild re-opens the cache to the drifted statements without
// anyone calling ClearDriftBlocks().
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
#include <set>
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
/// domain tag). DML statements never hit the plan cache, but traces, the
/// SLO monitor and the flight recorder still key their lanes by
/// fingerprint, so writes get one too.
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
  uint64_t invalidated_drift = 0;
  /// Lookups the fault site degraded to misses (also counted in misses).
  uint64_t degraded_fault = 0;
  /// Insertions refused because the fingerprint is drift-blocked.
  uint64_t rejected_drifted = 0;
  /// Drift blocks lifted automatically because the statistics epoch moved
  /// past the epoch the block was placed under.
  uint64_t drift_blocks_lifted = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Why a lookup resolved the way it did — the plan-cache attribute a
/// request's trace records (a postmortem cares whether a "miss" was a
/// cold cache, stale statistics, a drift block or a degraded shard).
enum class PlanCacheOutcome {
  kHit,
  kMiss,
  kStaleEpoch,     ///< entry existed but predated `current_epoch`
  kDriftBlocked,   ///< fingerprint blocked by the quality monitor
  kDegradedFault,  ///< server.plan_cache.lookup fault fired
};

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome);

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64);

  size_t capacity() const { return capacity_; }
  size_t size() const { return lru_.size(); }

  /// The cached plan for `key` if present, planned at `current_epoch`, and
  /// not drift-blocked; nullptr on miss. An entry from an older epoch is
  /// dropped (counted as invalidated_epoch). Probes the
  /// server.plan_cache.lookup fault site first; a firing degrades to a
  /// miss. A hit refreshes the entry's LRU position.
  std::shared_ptr<const opt::PlannedQuery> Lookup(const PlanCacheKey& key,
                                                  uint64_t current_epoch);

  /// Lookup plus the typed outcome (never null `outcome`). All non-hit
  /// outcomes count as misses in stats(), as before.
  std::shared_ptr<const opt::PlannedQuery> LookupEx(const PlanCacheKey& key,
                                                    uint64_t current_epoch,
                                                    PlanCacheOutcome* outcome);

  /// Caches `plan` for `key` at `epoch`, evicting the least recently used
  /// entry when full. Refused (counted) while `key.fingerprint` is
  /// drift-blocked; replaces any existing entry for the same key.
  void Insert(const PlanCacheKey& key,
              std::shared_ptr<const opt::PlannedQuery> plan, uint64_t epoch);

  /// Drops every entry for `fingerprint` (all thresholds and estimators)
  /// and blocks the fingerprint from re-insertion. The block records
  /// `blocked_epoch` (the statistics epoch the drift was observed under)
  /// and lifts itself on the first lookup/insert at a later epoch; the
  /// default never auto-lifts (only ClearDriftBlocks() does). Returns how
  /// many entries were evicted. This is the estimation-quality monitor's
  /// invalidation hook.
  size_t InvalidateFingerprint(uint64_t fingerprint,
                               uint64_t blocked_epoch = UINT64_MAX);

  /// Lifts all drift blocks — called after UPDATE STATISTICS, when fresh
  /// statistics make replanning the drifted statements meaningful again.
  /// (Blocks placed with an explicit epoch also lift themselves once the
  /// epoch moves past it.)
  void ClearDriftBlocks();

  bool IsDriftBlocked(uint64_t fingerprint) const {
    return drift_blocked_.count(fingerprint) > 0;
  }
  size_t drift_blocked_count() const { return drift_blocked_.size(); }

  void Clear();

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

  /// True while `fingerprint`'s drift block is active at `current_epoch`;
  /// lifts (and counts) the block when the epoch has moved past it.
  bool DriftBlockActive(uint64_t fingerprint, uint64_t current_epoch);

  size_t capacity_;
  fault::FaultInjector* fault_ = nullptr;
  std::list<Entry> lru_;  // front = most recently used
  std::map<PlanCacheKey, std::list<Entry>::iterator> index_;
  /// fingerprint -> statistics epoch the block was placed under.
  std::map<uint64_t, uint64_t> drift_blocked_;
  PlanCacheStats stats_;
};

}  // namespace server
}  // namespace robustqo

#endif  // ROBUSTQO_SERVER_PLAN_CACHE_H_
