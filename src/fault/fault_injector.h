// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Deterministic fault injection. A FaultInjector holds a set of named fault
// sites ("stats.sample.read", "exec.operator.alloc", ...) that production
// code probes at the moment the corresponding real-world failure could
// happen. Tests, the chaos harness and the shell arm sites with
// fire-always, fire-on-first-N, fire-on-Nth or seeded-probability
// semantics; unarmed sites cost one hash lookup and never fire. All
// randomness flows from the injector's seed, so a chaos run is replayable
// bit-for-bit from (seed, arming) alone.

#ifndef ROBUSTQO_FAULT_FAULT_INJECTOR_H_
#define ROBUSTQO_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/status.h"

namespace robustqo {
namespace fault {

/// Canonical fault-site names. Sites are plain strings so subsystems can
/// add their own, but these are the ones the core engine probes.
namespace sites {
/// Reading a per-table statistics sample (transient storage failure).
inline constexpr char kSampleRead[] = "stats.sample.read";
/// Reading a join synopsis (missing or stale synopsis storage).
inline constexpr char kSynopsisRead[] = "stats.synopsis.read";
/// Operator workspace allocation (hash table, sort buffer) failing.
inline constexpr char kOperatorAlloc[] = "exec.operator.alloc";
/// A clock stall charged as extra simulated seconds inside an operator.
inline constexpr char kClockStall[] = "exec.clock.stall";
/// Enqueueing a request into the server's admission queue (the moment a
/// real service could drop a connection or shed load).
inline constexpr char kAdmissionEnqueue[] = "server.admission.enqueue";
/// A plan-cache lookup (the moment a shared cache shard could be
/// unreachable); the server degrades a fired lookup to a miss.
inline constexpr char kPlanCacheLookup[] = "server.plan_cache.lookup";
/// Applying one staged row mutation to table storage (a page write
/// failing mid-batch). A fire rolls the whole staged batch back.
inline constexpr char kWriteApply[] = "storage.write.apply";
/// Publishing a staged batch at commit (the durability point). A fire
/// rolls the batch back; the write either commits atomically or not at
/// all.
inline constexpr char kWriteCommit[] = "storage.write.commit";
}  // namespace sites

/// The sites the engine probes, for shell listings and the chaos harness.
const std::vector<std::string>& KnownFaultSites();

/// When an armed site should fire.
enum class FireMode {
  kAlways,       ///< every probe fires
  kFirstN,       ///< the first `n` probes fire, later ones succeed
  kOnNth,        ///< exactly the `n`-th probe (1-based) fires
  kProbability,  ///< each probe fires with probability `p` (seeded)
};

/// One site's arming.
struct FaultSpec {
  FireMode mode = FireMode::kAlways;
  uint64_t n = 1;      ///< kFirstN / kOnNth parameter
  double p = 1.0;      ///< kProbability parameter
  /// Status code a fired probe reports. Defaults to kUnavailable (a
  /// transient read failure); the operator-alloc site conventionally arms
  /// with kResourceExhausted.
  StatusCode code = StatusCode::kUnavailable;
  /// Simulated seconds a fired clock-stall charges.
  double stall_seconds = 60.0;

  static FaultSpec Always() { return {}; }
  static FaultSpec FirstN(uint64_t n) {
    FaultSpec s;
    s.mode = FireMode::kFirstN;
    s.n = n;
    return s;
  }
  static FaultSpec OnNth(uint64_t n) {
    FaultSpec s;
    s.mode = FireMode::kOnNth;
    s.n = n;
    return s;
  }
  static FaultSpec Probability(double p) {
    FaultSpec s;
    s.mode = FireMode::kProbability;
    s.p = p;
    return s;
  }

  std::string ToString() const;
};

/// Deterministic, seeded fault injector. Not thread-safe (like the rest of
/// the engine: one instance per worker).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  /// Arms `site` with `spec`, resetting the site's hit counter.
  void Arm(const std::string& site, FaultSpec spec);
  void Disarm(const std::string& site);
  void DisarmAll();
  bool IsArmed(const std::string& site) const;

  /// Reseeds the probability stream and clears per-site hit state.
  void Reseed(uint64_t seed);
  uint64_t seed() const { return seed_; }

  /// Probes `site`: counts the hit and decides whether the fault fires.
  /// Unarmed sites never fire. Deterministic given (seed, arming, probe
  /// sequence).
  bool ShouldFire(const std::string& site);

  /// Probes `site` and converts a firing into the site's typed Status;
  /// returns OK when the site stays quiet. The returned message names the
  /// site so failures stay attributable end-to-end.
  Status Check(const std::string& site);

  /// Stall seconds to charge if `site` (a clock-stall style site) fires,
  /// 0.0 when quiet.
  double CheckStall(const std::string& site);

  uint64_t hits(const std::string& site) const;
  uint64_t fires(const std::string& site) const;
  uint64_t total_fires() const { return total_fires_; }

  /// "site mode [params]" lines for the shell's fault listing.
  std::string DescribeArmed() const;

  /// The armed sites and their specs, ordered by site name. Lets the
  /// server's scheduler replicate one injector's arming onto per-request
  /// injectors (each reseeded from its own deterministic stream) without
  /// sharing the non-thread-safe instance across workers.
  std::vector<std::pair<std::string, FaultSpec>> ArmedSpecs() const;

  /// Observability sinks (borrowed, nullable): every fire increments
  /// "fault.fired" and "fault.fired.<site>" and emits a "fault" trace
  /// event.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct SiteState {
    FaultSpec spec;
    uint64_t hit_count = 0;
    uint64_t fire_count = 0;
    Rng rng{0};
  };

  uint64_t seed_ = 0;
  uint64_t total_fires_ = 0;
  std::map<std::string, SiteState> armed_;
  std::map<std::string, uint64_t> unarmed_hits_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace fault
}  // namespace robustqo

#endif  // ROBUSTQO_FAULT_FAULT_INJECTOR_H_
