#include "learning/tpercent_tuner.h"

#include <algorithm>

#include "util/string_util.h"

namespace robustqo {
namespace learn {

double TPercentTuner::EffectiveThreshold(uint64_t fingerprint,
                                         double base) const {
  if (!config_.enabled) return base;
  auto it = overrides_.find(fingerprint);
  if (it == overrides_.end()) return base;
  return std::max(base, it->second);
}

void TPercentTuner::Retune(const obs::SloMonitor& slo, double base_threshold) {
  if (!config_.enabled) return;
  // The fingerprint's scope when it has min_observations successes.
  const auto eligible =
      [&](uint64_t fingerprint) -> const obs::SloMonitor::Scope* {
    const obs::SloMonitor::Scope* scope = slo.FingerprintScope(fingerprint);
    return scope != nullptr && scope->observed - scope->failed >=
                                   config_.min_observations
               ? scope
               : nullptr;
  };
  if (slo.instance() != source_) {
    source_ = slo.instance();
    cursor_ = 0;
    eligible_.clear();
  }
  for (uint64_t fingerprint : slo.FingerprintsSucceededSince(cursor_)) {
    if (eligible(fingerprint) != nullptr) eligible_.insert(fingerprint);
  }
  cursor_ = slo.successes_recorded();
  for (auto next = eligible_.begin(); next != eligible_.end();) {
    const uint64_t fingerprint = *next;
    const obs::SloMonitor::Scope* scope = eligible(fingerprint);
    // Successes only grow, so only a Reset of the monitor drops one.
    if (scope == nullptr) {
      next = eligible_.erase(next);
      continue;
    }
    ++next;
    const uint64_t successes = scope->observed - scope->failed;
    const double current = EffectiveThreshold(fingerprint, base_threshold);
    const double regret_rate =
        static_cast<double>(scope->regret_positive) /
        static_cast<double>(successes);
    const double budget = 1.0 - current;
    if (regret_rate > budget + config_.slack) {
      // Chronic regret: the posterior's T%-quantile undersells this shape.
      const double raised =
          std::min(config_.max_threshold, current + config_.step);
      if (raised > current) {
        overrides_[fingerprint] = raised;
        ++raised_total_;
      }
    } else if (regret_rate + config_.slack < budget) {
      // Calibrated again: walk the override back toward the base.
      auto it = overrides_.find(fingerprint);
      if (it != overrides_.end()) {
        const double relaxed = it->second - config_.step;
        if (relaxed <= base_threshold) {
          overrides_.erase(it);
        } else {
          it->second = relaxed;
        }
        ++relaxed_total_;
      }
    }
  }
}

std::string TPercentTuner::ReportText() const {
  std::string out = StrPrintf(
      "t%% tuner: %s, %zu overrides (%llu raises, %llu relaxes)\n",
      config_.enabled ? "on" : "off", overrides_.size(),
      static_cast<unsigned long long>(raised_total_),
      static_cast<unsigned long long>(relaxed_total_));
  for (const auto& [fingerprint, threshold] : overrides_) {
    out += StrPrintf("  %016llx T=%.0f%%\n",
                     static_cast<unsigned long long>(fingerprint),
                     threshold * 100.0);
  }
  return out;
}

std::string TPercentTuner::ToJson() const {
  std::string out = "{";
  out += StrPrintf("\"enabled\":%s", config_.enabled ? "true" : "false");
  out += StrPrintf(",\"raised\":%llu",
                   static_cast<unsigned long long>(raised_total_));
  out += StrPrintf(",\"relaxed\":%llu",
                   static_cast<unsigned long long>(relaxed_total_));
  out += ",\"overrides\":[";
  bool first = true;
  for (const auto& [fingerprint, threshold] : overrides_) {
    if (!first) out += ",";
    first = false;
    out += StrPrintf("{\"fingerprint\":\"0x%016llx\",\"threshold\":%.9g}",
                     static_cast<unsigned long long>(fingerprint), threshold);
  }
  out += "]}";
  return out;
}

void TPercentTuner::PublishMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetGauge("optimizer.tpercent.overrides")
      ->Set(static_cast<double>(overrides_.size()));
  const auto sync = [metrics](const char* name, uint64_t value) {
    obs::Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("optimizer.tpercent.raised", raised_total_);
  sync("optimizer.tpercent.relaxed", relaxed_total_);
}

void TPercentTuner::Reset() { overrides_.clear(); }

}  // namespace learn
}  // namespace robustqo
