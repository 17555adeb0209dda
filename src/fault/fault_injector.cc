#include "fault/fault_injector.h"

#include <functional>

#include "util/string_util.h"

namespace robustqo {
namespace fault {

const std::vector<std::string>& KnownFaultSites() {
  static const std::vector<std::string> kSites = {
      sites::kSampleRead,       sites::kSynopsisRead,
      sites::kOperatorAlloc,    sites::kClockStall,
      sites::kAdmissionEnqueue, sites::kPlanCacheLookup,
      sites::kWriteApply,       sites::kWriteCommit};
  return kSites;
}

std::string FaultSpec::ToString() const {
  switch (mode) {
    case FireMode::kAlways:
      return "always";
    case FireMode::kFirstN:
      return StrPrintf("first=%llu", static_cast<unsigned long long>(n));
    case FireMode::kOnNth:
      return StrPrintf("nth=%llu", static_cast<unsigned long long>(n));
    case FireMode::kProbability:
      return StrPrintf("p=%.3f", p);
  }
  return "?";
}

FaultInjector::FaultInjector(uint64_t seed) : seed_(seed) {}

void FaultInjector::Arm(const std::string& site, FaultSpec spec) {
  SiteState state;
  state.spec = spec;
  // Each site gets an independent deterministic stream derived from the
  // injector seed and the site name, so arming order never changes
  // outcomes.
  state.rng = Rng(seed_ ^ std::hash<std::string>{}(site));
  armed_[site] = std::move(state);
}

void FaultInjector::Disarm(const std::string& site) { armed_.erase(site); }

void FaultInjector::DisarmAll() { armed_.clear(); }

bool FaultInjector::IsArmed(const std::string& site) const {
  return armed_.count(site) > 0;
}

void FaultInjector::Reseed(uint64_t seed) {
  seed_ = seed;
  total_fires_ = 0;
  unarmed_hits_.clear();
  // Re-arm every site so hit counters and streams restart from the seed.
  for (auto& [site, state] : armed_) {
    state.hit_count = 0;
    state.fire_count = 0;
    state.rng = Rng(seed_ ^ std::hash<std::string>{}(site));
  }
}

bool FaultInjector::ShouldFire(const std::string& site) {
  auto it = armed_.find(site);
  if (it == armed_.end()) {
    ++unarmed_hits_[site];
    return false;
  }
  SiteState& state = it->second;
  ++state.hit_count;
  bool fire = false;
  switch (state.spec.mode) {
    case FireMode::kAlways:
      fire = true;
      break;
    case FireMode::kFirstN:
      fire = state.hit_count <= state.spec.n;
      break;
    case FireMode::kOnNth:
      fire = state.hit_count == state.spec.n;
      break;
    case FireMode::kProbability:
      fire = state.rng.NextBernoulli(state.spec.p);
      break;
  }
  if (fire) {
    ++state.fire_count;
    ++total_fires_;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("fault.fired")->Increment();
      metrics_->GetCounter("fault.fired." + site)->Increment();
    }
    if (tracer_ != nullptr) {
      tracer_->Event("fault", "fired",
                     {{"site", site},
                      {"mode", state.spec.ToString()},
                      {"hit", obs::AttrU64(state.hit_count)}});
    }
  }
  return fire;
}

Status FaultInjector::Check(const std::string& site) {
  auto it = armed_.find(site);
  if (it == armed_.end()) {
    ++unarmed_hits_[site];
    return Status::OK();
  }
  if (!ShouldFire(site)) return Status::OK();
  return Status(it->second.spec.code, "injected fault at " + site);
}

double FaultInjector::CheckStall(const std::string& site) {
  auto it = armed_.find(site);
  if (it == armed_.end()) {
    ++unarmed_hits_[site];
    return 0.0;
  }
  if (!ShouldFire(site)) return 0.0;
  return it->second.spec.stall_seconds;
}

uint64_t FaultInjector::hits(const std::string& site) const {
  auto it = armed_.find(site);
  if (it != armed_.end()) return it->second.hit_count;
  auto uit = unarmed_hits_.find(site);
  return uit == unarmed_hits_.end() ? 0 : uit->second;
}

uint64_t FaultInjector::fires(const std::string& site) const {
  auto it = armed_.find(site);
  return it == armed_.end() ? 0 : it->second.fire_count;
}

std::string FaultInjector::DescribeArmed() const {
  if (armed_.empty()) return "(no faults armed)\n";
  std::string out;
  for (const auto& [site, state] : armed_) {
    out += StrPrintf("%-22s %-12s code=%s hits=%llu fires=%llu\n",
                     site.c_str(), state.spec.ToString().c_str(),
                     StatusCodeName(state.spec.code),
                     static_cast<unsigned long long>(state.hit_count),
                     static_cast<unsigned long long>(state.fire_count));
  }
  return out;
}

std::vector<std::pair<std::string, FaultSpec>> FaultInjector::ArmedSpecs()
    const {
  std::vector<std::pair<std::string, FaultSpec>> out;
  out.reserve(armed_.size());
  for (const auto& [site, state] : armed_) out.emplace_back(site, state.spec);
  return out;
}

}  // namespace fault
}  // namespace robustqo
