// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// The two memo layers of the sampling engine, both keyed by canonical
// expression fingerprints (perf/fingerprint.h):
//
//   * ProbeCountCache — a per-query memo of (k, n) probe counts. The DP
//     join enumerator costs the same conjunct under many (join subset,
//     context) combinations; the first probe scans the sample, every
//     repeat is a hash lookup. The optimizer passes a fresh cache per
//     Optimize() call in its stats::EstimationContext, so entries never
//     outlive the statistics they were computed from.
//   * InverseBetaCache — a bounded LRU over inverse-Beta quantile
//     evaluations cdf^{-1}(T) keyed by (alpha, beta, p) bit patterns.
//     Newton iteration on the incomplete beta is the second-hottest
//     operation of estimation, and a workload re-inverts a small working
//     set of posteriors (same prior, same threshold, overlapping k).
//
// Both report hits/misses; the estimator forwards them to the perf.cache.*
// metric family and EXPLAIN ANALYZE. Cached and uncached results are
// identical by construction (the cache stores the function's exact output
// and the key is the exact input bits) — pinned by tests/perf/caches_test.

#ifndef ROBUSTQO_PERF_CACHES_H_
#define ROBUSTQO_PERF_CACHES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace robustqo {
namespace perf {

/// A (k, n) sample observation: k of n sample tuples satisfied a predicate.
struct ProbeCount {
  uint64_t satisfying = 0;   ///< k
  uint64_t sample_size = 0;  ///< n
};

/// Per-query memo of probe counts, keyed by (sample source, predicate
/// fingerprint). Thread-safe; the estimator consults it sequentially but
/// bench harnesses share one across worker threads.
class ProbeCountCache {
 public:
  /// `source` names the sample scanned (e.g. "sample:lineitem" or
  /// "synopsis:orders") — the same predicate probed against different
  /// samples must not share an entry.
  std::optional<ProbeCount> Lookup(const std::string& source,
                                   uint64_t fingerprint);
  void Insert(const std::string& source, uint64_t fingerprint,
              ProbeCount count);

  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;

  /// Per-query tally of inverse-Beta inversions: returns whether
  /// (alpha, beta, p) was already inverted within this cache's scope (one
  /// optimizer call) and counts it as a beta hit/miss accordingly. EXPLAIN
  /// ANALYZE reports these instead of the global LRU's residency, which
  /// depends on what ran before — this classification is a function of the
  /// query alone, so snapshots stay byte-identical across runs and thread
  /// counts.
  bool NoteBetaInversion(double alpha, double beta, double p);

  uint64_t beta_hits() const;
  uint64_t beta_misses() const;

 private:
  static std::string Key(const std::string& source, uint64_t fingerprint);

  mutable std::mutex mu_;
  std::unordered_map<std::string, ProbeCount> entries_;
  std::set<std::tuple<uint64_t, uint64_t, uint64_t>> beta_keys_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t beta_hits_ = 0;
  uint64_t beta_misses_ = 0;
};

/// Bounded LRU memo for inverse-Beta quantiles. Value(alpha, beta, p)
/// returns BetaDistribution(alpha, beta).InverseCdf(p), computing it on
/// miss and evicting least-recently-used entries beyond the capacity.
class InverseBetaCache {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit InverseBetaCache(size_t capacity = kDefaultCapacity);

  /// The memoized quantile. `hit` (when non-null) reports whether the
  /// value came from the cache.
  double Value(double alpha, double beta, double p, bool* hit = nullptr);

  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;

 private:
  struct Key {
    uint64_t alpha_bits;
    uint64_t beta_bits;
    uint64_t p_bits;
    bool operator==(const Key& o) const {
      return alpha_bits == o.alpha_bits && beta_bits == o.beta_bits &&
             p_bits == o.p_bits;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  using LruList = std::list<std::pair<Key, double>>;

  void EvictLocked();

  mutable std::mutex mu_;
  const size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace perf
}  // namespace robustqo

#endif  // ROBUSTQO_PERF_CACHES_H_
