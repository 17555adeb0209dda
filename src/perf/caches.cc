#include "perf/caches.h"

#include <bit>

#include "stats_math/beta_distribution.h"
#include "util/string_util.h"

namespace robustqo {
namespace perf {

// ----- ProbeCountCache -----

std::string ProbeCountCache::Key(const std::string& source,
                                 uint64_t fingerprint) {
  return source + "#" + StrPrintf("%016llx",
                                  static_cast<unsigned long long>(fingerprint));
}

std::optional<ProbeCount> ProbeCountCache::Lookup(const std::string& source,
                                                  uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(source, fingerprint));
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void ProbeCountCache::Insert(const std::string& source, uint64_t fingerprint,
                             ProbeCount count) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[Key(source, fingerprint)] = count;
}

void ProbeCountCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  beta_keys_.clear();
  hits_ = 0;
  misses_ = 0;
  beta_hits_ = 0;
  beta_misses_ = 0;
}

bool ProbeCountCache::NoteBetaInversion(double alpha, double beta, double p) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool seen =
      !beta_keys_
           .emplace(std::bit_cast<uint64_t>(alpha),
                    std::bit_cast<uint64_t>(beta), std::bit_cast<uint64_t>(p))
           .second;
  ++(seen ? beta_hits_ : beta_misses_);
  return seen;
}

uint64_t ProbeCountCache::beta_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return beta_hits_;
}

uint64_t ProbeCountCache::beta_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return beta_misses_;
}

uint64_t ProbeCountCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ProbeCountCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t ProbeCountCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// ----- InverseBetaCache -----

size_t InverseBetaCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = k.alpha_bits * 0x9e3779b97f4a7c15ULL;
  h ^= k.beta_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= k.p_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return static_cast<size_t>(h ^ (h >> 32));
}

InverseBetaCache::InverseBetaCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void InverseBetaCache::EvictLocked() {
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

double InverseBetaCache::Value(double alpha, double beta, double p, bool* hit) {
  const Key key{std::bit_cast<uint64_t>(alpha), std::bit_cast<uint64_t>(beta),
                std::bit_cast<uint64_t>(p)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
      if (hit != nullptr) *hit = true;
      return it->second->second;
    }
    ++misses_;
  }
  // Invert outside the lock: the Newton iteration is the expensive part,
  // and two threads racing on the same key compute the same bits.
  const double value = math::BetaDistribution(alpha, beta).InverseCdf(p);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      lru_.emplace_front(key, value);
      index_.emplace(key, lru_.begin());
      EvictLocked();
    }
  }
  if (hit != nullptr) *hit = false;
  return value;
}

void InverseBetaCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  hits_ = 0;
  misses_ = 0;
}

uint64_t InverseBetaCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t InverseBetaCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t InverseBetaCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

}  // namespace perf
}  // namespace robustqo
