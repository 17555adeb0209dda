#include "server/plan_cache.h"

#include <bit>

#include "obs/trace.h"
#include "perf/fingerprint.h"
#include "util/string_util.h"

namespace robustqo {
namespace server {

namespace {

// Same mixing primitives as perf/fingerprint.cc (splitmix64 finaliser +
// FNV-1a), re-stated here so the statement fingerprint stays stable even
// if perf's internals move.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Combine(uint64_t seed, uint64_t v) {
  return Mix(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix(h);
}

}  // namespace

uint64_t FingerprintQuery(const opt::QuerySpec& query) {
  uint64_t h = Mix(0x5e57a7e3e27ULL);  // domain tag: server statement
  // FROM list, canonicalised: each table contributes (name, predicate
  // fingerprint) and the contributions are combined order-insensitively,
  // matching the natural-join semantics where FROM order is meaningless.
  uint64_t sum = 0;
  uint64_t x = 0;
  for (const opt::TableRef& ref : query.tables) {
    uint64_t t = Combine(HashString(ref.table),
                         perf::FingerprintExpr(ref.predicate));
    t = Mix(t);
    sum += t;
    x ^= t;
  }
  h = Combine(h, query.tables.size());
  h = Combine(h, sum);
  h = Combine(h, x);
  // Everything downstream of the join is order-sensitive.
  h = Combine(h, query.aggregates.size());
  for (const exec::AggSpec& agg : query.aggregates) {
    h = Combine(h, static_cast<uint64_t>(agg.kind));
    h = Combine(h, HashString(agg.column));
    h = Combine(h, HashString(agg.output_name));
  }
  h = Combine(h, query.group_by.size());
  for (const std::string& column : query.group_by) {
    h = Combine(h, HashString(column));
  }
  h = Combine(h, query.select_columns.size());
  for (const std::string& column : query.select_columns) {
    h = Combine(h, HashString(column));
  }
  h = Combine(h, HashString(query.order_by));
  return Combine(h, query.limit);
}

uint64_t FingerprintStatementText(const std::string& statement) {
  return Combine(Mix(0xd39157a7e0e27ULL), HashString(statement));
}

PlanCacheKey PlanCacheKey::Make(uint64_t fingerprint, double threshold,
                                core::EstimatorKind kind) {
  PlanCacheKey key;
  key.fingerprint = fingerprint;
  key.threshold_bits = std::bit_cast<uint64_t>(threshold);
  key.estimator = static_cast<int>(kind);
  return key;
}

const char* PlanCacheKey::estimator_name() const {
  return estimator == static_cast<int>(core::EstimatorKind::kHistogram)
             ? "histogram"
             : "robust";
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void PlanCache::Erase(
    std::map<PlanCacheKey, std::list<Entry>::iterator>::iterator it) {
  lru_.erase(it->second);
  index_.erase(it);
}

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome) {
  switch (outcome) {
    case PlanCacheOutcome::kHit:
      return "hit";
    case PlanCacheOutcome::kMiss:
      return "miss";
    case PlanCacheOutcome::kStaleEpoch:
      return "stale_epoch";
    case PlanCacheOutcome::kDegradedFault:
      return "degraded_fault";
  }
  return "?";
}

std::shared_ptr<const opt::PlannedQuery> PlanCache::Lookup(
    const PlanCacheKey& key, uint64_t current_epoch,
    PlanCacheOutcome* outcome) {
  if (fault_ != nullptr &&
      fault_->ShouldFire(fault::sites::kPlanCacheLookup)) {
    // The cache shard is "unreachable": degrade to a miss. Re-planning is
    // always correct, just slower, so this failure never surfaces to the
    // client — it is only counted.
    ++stats_.degraded_fault;
    ++stats_.misses;
    *outcome = PlanCacheOutcome::kDegradedFault;
    return nullptr;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    *outcome = PlanCacheOutcome::kMiss;
    return nullptr;
  }
  if (it->second->epoch != current_epoch) {
    // Planned under statistics that no longer exist.
    Erase(it);
    ++stats_.invalidated_epoch;
    ++stats_.misses;
    *outcome = PlanCacheOutcome::kStaleEpoch;
    return nullptr;
  }
  // Refresh LRU position.
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
  ++it->second->hits;
  ++stats_.hits;
  *outcome = PlanCacheOutcome::kHit;
  return it->second->plan;
}

void PlanCache::Insert(const PlanCacheKey& key,
                       std::shared_ptr<const opt::PlannedQuery> plan,
                       uint64_t epoch) {
  auto it = index_.find(key);
  if (it != index_.end()) Erase(it);
  while (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions_lru;
  }
  Entry entry;
  entry.key = key;
  entry.plan = std::move(plan);
  entry.epoch = epoch;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

void PlanCache::PublishMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const auto sync = [metrics](const char* name, uint64_t value) {
    obs::Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("perf.cache.plan.hits", stats_.hits);
  sync("perf.cache.plan.misses", stats_.misses);
  sync("perf.cache.plan.insertions", stats_.insertions);
  sync("perf.cache.plan.evictions.lru", stats_.evictions_lru);
  sync("perf.cache.plan.invalidated.epoch", stats_.invalidated_epoch);
  sync("perf.cache.plan.degraded.fault", stats_.degraded_fault);
  metrics->GetGauge("perf.cache.plan.size")
      ->Set(static_cast<double>(lru_.size()));
}

std::string PlanCache::ReportText() const {
  std::string out = StrPrintf(
      "plan cache: %zu / %zu entries, hit rate %.3f\n", lru_.size(), capacity_,
      stats_.HitRate());
  out += StrPrintf(
      "  hits=%llu misses=%llu insertions=%llu evictions=%llu\n",
      static_cast<unsigned long long>(stats_.hits),
      static_cast<unsigned long long>(stats_.misses),
      static_cast<unsigned long long>(stats_.insertions),
      static_cast<unsigned long long>(stats_.evictions_lru));
  out += StrPrintf(
      "  invalidated: epoch=%llu; degraded_fault=%llu\n",
      static_cast<unsigned long long>(stats_.invalidated_epoch),
      static_cast<unsigned long long>(stats_.degraded_fault));
  // Entries in LRU order (most recent first) — capped so huge caches stay
  // printable.
  size_t shown = 0;
  for (const Entry& entry : lru_) {
    if (shown++ >= 16) {
      out += StrPrintf("  ... %zu more\n", lru_.size() - 16);
      break;
    }
    out += StrPrintf(
        "  fp=%s T=%.0f%% %s epoch=%llu hits=%llu  %s\n",
        obs::FingerprintHex(entry.key.fingerprint).c_str(),
        std::bit_cast<double>(entry.key.threshold_bits) * 100.0,
        entry.key.estimator_name(),
        static_cast<unsigned long long>(entry.epoch),
        static_cast<unsigned long long>(entry.hits),
        entry.plan != nullptr ? entry.plan->label.c_str() : "?");
  }
  return out;
}

}  // namespace server
}  // namespace robustqo
