#include "obs/slo_monitor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <vector>

#include "util/string_util.h"

namespace robustqo {
namespace obs {

uint64_t SloMonitor::InstanceId::Next() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SloMonitor::SloMonitor(SloMonitorConfig config)
    : config_(config), global_(config.sketch_accuracy) {}

void SloMonitor::ConfigureCharging(double wave_delay_seconds,
                                   double plan_charge_seconds) {
  config_.wave_delay_seconds = wave_delay_seconds;
  config_.plan_charge_seconds = plan_charge_seconds;
}

SloMonitor::Scope* SloMonitor::MutableSession(const std::string& label) {
  auto it = sessions_.find(label);
  if (it == sessions_.end()) {
    it = sessions_.emplace(label, Scope(config_.sketch_accuracy)).first;
  }
  return &it->second;
}

SloMonitor::Scope* SloMonitor::MutableFingerprint(uint64_t fingerprint) {
  auto it = fingerprints_.find(fingerprint);
  if (it == fingerprints_.end()) {
    it = fingerprints_.emplace(fingerprint, Scope(config_.sketch_accuracy))
             .first;
  }
  return &it->second;
}

void SloMonitor::RecordInto(Scope* scope, const SloObservation& observation,
                            double queue_wait, double service, double regret,
                            double ratio) {
  ++scope->observed;
  scope->queue_wait.Observe(queue_wait);
  if (config_.queue_wait_breach_seconds > 0.0 &&
      queue_wait > config_.queue_wait_breach_seconds) {
    ++scope->breach_queue_wait;
  }
  if (observation.failed) {
    ++scope->failed;
    return;
  }
  scope->service.Observe(service);
  scope->regret.Observe(regret);
  if (regret > 0.0) ++scope->regret_positive;
  scope->worst_regret_ratio = std::max(scope->worst_regret_ratio, ratio);
  if (config_.service_breach_seconds > 0.0 &&
      service > config_.service_breach_seconds) {
    ++scope->breach_service;
  }
  if (config_.regret_breach_seconds > 0.0 &&
      regret > config_.regret_breach_seconds) {
    ++scope->breach_regret;
  }
}

void SloMonitor::Record(const SloObservation& observation) {
  const double queue_wait = QueueWaitSeconds(observation.queue_waves);
  const double service =
      ServiceSeconds(observation.actual_seconds, observation.cache_hit);
  // Realized regret: how far the execution overshot the plan's promise.
  // An actual below the estimate is zero regret, not negative — the
  // robust choice delivered what it advertised (or better).
  const double regret = observation.failed
                            ? 0.0
                            : std::max(0.0, observation.actual_seconds -
                                                observation.estimated_seconds);
  const double ratio =
      (observation.failed || observation.estimated_seconds <= 0.0)
          ? 0.0
          : observation.actual_seconds / observation.estimated_seconds;
  RecordInto(&global_, observation, queue_wait, service, regret, ratio);
  RecordInto(MutableSession(observation.session_label), observation,
             queue_wait, service, regret, ratio);
  RecordInto(MutableFingerprint(observation.fingerprint), observation,
             queue_wait, service, regret, ratio);
  if (observation.failed) return;
  journal_.push_back({++successes_recorded_, observation.fingerprint});
  if (journal_.size() > 2 * fingerprints_.size() + 16) {
    // Keep each fingerprint's latest entry, in sequence order.
    std::unordered_set<uint64_t> seen;
    auto keep = journal_.end();
    for (auto it = journal_.end(); it != journal_.begin();) {
      --it;
      if (seen.insert(it->fingerprint).second) *--keep = *it;
    }
    journal_.erase(journal_.begin(), keep);
  }
}

const SloMonitor::Scope* SloMonitor::SessionScope(
    const std::string& label) const {
  auto it = sessions_.find(label);
  return it == sessions_.end() ? nullptr : &it->second;
}

const SloMonitor::Scope* SloMonitor::FingerprintScope(
    uint64_t fingerprint) const {
  auto it = fingerprints_.find(fingerprint);
  return it == fingerprints_.end() ? nullptr : &it->second;
}

std::vector<uint64_t> SloMonitor::FingerprintsSucceededSince(
    uint64_t since) const {
  auto first = std::upper_bound(
      journal_.begin(), journal_.end(), since,
      [](uint64_t cursor, const JournalEntry& entry) {
        return cursor < entry.sequence;
      });
  std::vector<uint64_t> fingerprints;
  fingerprints.reserve(static_cast<size_t>(journal_.end() - first));
  for (; first != journal_.end(); ++first) {
    fingerprints.push_back(first->fingerprint);
  }
  return fingerprints;
}

namespace {

std::string QuantileLine(const char* label, const QuantileSketch& sketch) {
  return StrPrintf(
      "  %-10s (simulated s): p50=%.6f p95=%.6f p99=%.6f n=%llu\n", label,
      sketch.Quantile(0.5), sketch.Quantile(0.95), sketch.Quantile(0.99),
      static_cast<unsigned long long>(sketch.count()));
}

/// Worst scopes by a tail statistic: (p99 desc, key asc) so listings are
/// deterministic even under ties.
template <typename Map, typename KeyFormat, typename TailOf>
std::string WorstScopes(const Map& scopes, size_t top_k, const char* title,
                        KeyFormat format_key, TailOf tail_of) {
  if (top_k == 0 || scopes.empty()) return "";
  std::vector<std::pair<double, const typename Map::value_type*>> ranked;
  ranked.reserve(scopes.size());
  for (const auto& entry : scopes) {
    ranked.emplace_back(tail_of(entry.second), &entry);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::string out = StrPrintf("  %s:", title);
  const size_t n = std::min(top_k, ranked.size());
  for (size_t i = 0; i < n; ++i) {
    out += StrPrintf(" %s p99=%.6f n=%llu%s",
                     format_key(ranked[i].second->first).c_str(),
                     ranked[i].first,
                     static_cast<unsigned long long>(
                         ranked[i].second->second.observed),
                     i + 1 < n ? ";" : "");
  }
  out += "\n";
  return out;
}

}  // namespace

std::string SloMonitor::ReportText() const {
  std::string out = StrPrintf(
      "slo: observed=%llu failed=%llu sessions=%zu fingerprints=%zu\n",
      static_cast<unsigned long long>(global_.observed),
      static_cast<unsigned long long>(global_.failed), sessions_.size(),
      fingerprints_.size());
  out += QuantileLine("queue_wait", global_.queue_wait);
  out += QuantileLine("service", global_.service);
  out += QuantileLine("regret", global_.regret);
  out += StrPrintf(
      "  regret: positive=%llu worst_ratio=%.4f\n",
      static_cast<unsigned long long>(global_.regret_positive),
      global_.worst_regret_ratio);
  out += StrPrintf(
      "  breaches: queue_wait=%llu service=%llu regret=%llu\n",
      static_cast<unsigned long long>(global_.breach_queue_wait),
      static_cast<unsigned long long>(global_.breach_service),
      static_cast<unsigned long long>(global_.breach_regret));
  out += WorstScopes(
      sessions_, config_.report_top_k, "worst sessions (service p99)",
      [](const std::string& label) { return label; },
      [](const Scope& s) { return s.service.Quantile(0.99); });
  out += WorstScopes(
      fingerprints_, config_.report_top_k, "worst fingerprints (regret p99)",
      [](uint64_t fingerprint) {
        return StrPrintf("%016llx",
                         static_cast<unsigned long long>(fingerprint));
      },
      [](const Scope& s) { return s.regret.Quantile(0.99); });
  return out;
}

namespace {

std::string ScopeJson(const SloMonitor::Scope& s) {
  return StrPrintf(
      "{\"observed\":%llu,\"failed\":%llu,"
      "\"queue_wait\":{\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f},"
      "\"service\":{\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f},"
      "\"regret\":{\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f,"
      "\"positive\":%llu,\"worst_ratio\":%.4f},"
      "\"breaches\":{\"queue_wait\":%llu,\"service\":%llu,\"regret\":%llu}}",
      static_cast<unsigned long long>(s.observed),
      static_cast<unsigned long long>(s.failed), s.queue_wait.Quantile(0.5),
      s.queue_wait.Quantile(0.95), s.queue_wait.Quantile(0.99),
      s.service.Quantile(0.5), s.service.Quantile(0.95),
      s.service.Quantile(0.99), s.regret.Quantile(0.5),
      s.regret.Quantile(0.95), s.regret.Quantile(0.99),
      static_cast<unsigned long long>(s.regret_positive),
      s.worst_regret_ratio,
      static_cast<unsigned long long>(s.breach_queue_wait),
      static_cast<unsigned long long>(s.breach_service),
      static_cast<unsigned long long>(s.breach_regret));
}

}  // namespace

std::string SloMonitor::ToJson() const {
  std::string out = "{\"slo\":{\"global\":" + ScopeJson(global_);
  out += ",\"sessions\":{";
  bool first = true;
  for (const auto& [label, scope] : sessions_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(label) + "\":" + ScopeJson(scope);
  }
  out += "},\"fingerprints\":{";
  first = true;
  for (const auto& [fingerprint, scope] : fingerprints_) {
    if (!first) out += ",";
    first = false;
    out += StrPrintf("\"%016llx\":",
                     static_cast<unsigned long long>(fingerprint)) +
           ScopeJson(scope);
  }
  out += "}}}";
  return out;
}

void SloMonitor::PublishMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  const auto sync = [metrics](const char* name, uint64_t value) {
    Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("server.slo.observed", global_.observed);
  sync("server.slo.failed", global_.failed);
  sync("server.slo.breach.queue_wait", global_.breach_queue_wait);
  sync("server.slo.breach.service", global_.breach_service);
  sync("server.slo.breach.regret", global_.breach_regret);
  sync("optimizer.regret.positive", global_.regret_positive);
  metrics->GetGauge("server.slo.sessions_tracked")
      ->Set(static_cast<double>(sessions_.size()));
  metrics->GetGauge("server.slo.fingerprints_tracked")
      ->Set(static_cast<double>(fingerprints_.size()));
  metrics->GetGauge("optimizer.regret.worst_ratio")
      ->Set(global_.worst_regret_ratio);
  // Sketches rebuild from the monitor's state so republishing never
  // double-counts (same pattern as the quality monitor).
  const auto republish = [metrics, this](const char* name,
                                         const QuantileSketch& source) {
    QuantileSketch* sketch = metrics->GetSketch(name, config_.sketch_accuracy);
    sketch->Reset();
    sketch->Merge(source);
  };
  republish("server.slo.queue_wait_seconds", global_.queue_wait);
  republish("server.slo.service_seconds", global_.service);
  republish("optimizer.regret.seconds", global_.regret);
}

void SloMonitor::Reset() {
  global_ = Scope(config_.sketch_accuracy);
  sessions_.clear();
  fingerprints_.clear();
  journal_.clear();
}

}  // namespace obs
}  // namespace robustqo
