#include "learning/feedback_store.h"

#include <algorithm>

#include "util/string_util.h"

namespace robustqo {
namespace learn {

namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

Status FeedbackStore::Observe(uint64_t fingerprint, const std::string& label,
                              double estimated_selectivity,
                              double actual_selectivity,
                              uint64_t statistics_epoch) {
  if (!config_.enabled) return Status::OK();
  if (fingerprint == 0) {
    return Status::InvalidArgument("feedback requires a predicate fingerprint");
  }
  if (injector_ != nullptr) {
    Status fault = injector_->Check(fault::sites::kLearningFeedbackApply);
    if (!fault.ok()) {
      ++dropped_total_;
      return fault;
    }
  }

  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    if (entries_.size() >= config_.max_fingerprints &&
        config_.max_fingerprints > 0) {
      // Deterministic eviction: the least-observed entry, oldest insertion
      // breaking ties. Feeding happens in admission order, so the victim is
      // a pure function of the observation sequence.
      auto victim = entries_.begin();
      for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
        if (cand->second.observations < victim->second.observations ||
            (cand->second.observations == victim->second.observations &&
             cand->second.order < victim->second.order)) {
          victim = cand;
        }
      }
      entries_.erase(victim);
      ++evictions_total_;
    }
    Entry entry;
    entry.label = label;
    entry.epoch = statistics_epoch;
    entry.order = next_order_++;
    it = entries_.emplace(fingerprint, std::move(entry)).first;
  }
  Entry& entry = it->second;
  if (entry.epoch != statistics_epoch) {
    // Statistics were rebuilt under this fingerprint: the old evidence
    // described the stale statistics' errors, not the fresh ones'. Drop it
    // and start accumulating against the new epoch.
    entry.k_eq = 0.0;
    entry.n_eq = 0.0;
    entry.observations = 0;
    entry.epoch = statistics_epoch;
    ++epoch_resets_total_;
  }
  const double w = std::max(1.0, config_.observation_weight);
  entry.k_eq += Clamp01(actual_selectivity) * w;
  entry.n_eq += w;
  if (config_.max_equivalent_n > 0.0 && entry.n_eq > config_.max_equivalent_n) {
    const double scale = config_.max_equivalent_n / entry.n_eq;
    entry.k_eq *= scale;
    entry.n_eq = config_.max_equivalent_n;
  }
  ++entry.observations;
  entry.last_estimated = Clamp01(estimated_selectivity);
  entry.last_actual = Clamp01(actual_selectivity);
  ++observations_total_;
  return Status::OK();
}

std::optional<LearnedEvidence> FeedbackStore::Lookup(
    uint64_t fingerprint, uint64_t statistics_epoch) const {
  if (!config_.enabled) return std::nullopt;
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return std::nullopt;
  const Entry& entry = it->second;
  if (entry.epoch != statistics_epoch) return std::nullopt;
  if (entry.observations < config_.min_observations) return std::nullopt;
  LearnedEvidence evidence;
  evidence.k_eq = entry.k_eq;
  evidence.n_eq = entry.n_eq;
  evidence.observations = entry.observations;
  return evidence;
}

Status FeedbackStore::CheckApply() {
  if (injector_ == nullptr) return Status::OK();
  return injector_->Check(fault::sites::kLearningFeedbackApply);
}

std::string FeedbackStore::ReportText() const {
  std::string out = StrPrintf(
      "learning feedback store: %s, %zu fingerprints, %llu observations "
      "(%llu dropped, %llu evicted, %llu epoch resets)\n",
      config_.enabled ? "on" : "off", entries_.size(),
      static_cast<unsigned long long>(observations_total_),
      static_cast<unsigned long long>(dropped_total_),
      static_cast<unsigned long long>(evictions_total_),
      static_cast<unsigned long long>(epoch_resets_total_));
  for (const auto& [fingerprint, entry] : entries_) {
    const double mean = entry.n_eq > 0.0 ? entry.k_eq / entry.n_eq : 0.0;
    out += StrPrintf(
        "  %016llx epoch=%llu obs=%llu k_eq=%.1f/n_eq=%.1f mean=%.4g "
        "last(est=%.4g act=%.4g)%s %s\n",
        static_cast<unsigned long long>(fingerprint),
        static_cast<unsigned long long>(entry.epoch),
        static_cast<unsigned long long>(entry.observations), entry.k_eq,
        entry.n_eq, mean, entry.last_estimated, entry.last_actual,
        entry.observations < config_.min_observations ? " (warming)" : "",
        entry.label.c_str());
  }
  return out;
}

std::string FeedbackStore::ToJson() const {
  std::string out = "{";
  out += StrPrintf("\"enabled\":%s", config_.enabled ? "true" : "false");
  out += StrPrintf(",\"fingerprints\":%zu", entries_.size());
  out += StrPrintf(",\"observations\":%llu",
                   static_cast<unsigned long long>(observations_total_));
  out += StrPrintf(",\"dropped\":%llu",
                   static_cast<unsigned long long>(dropped_total_));
  out += StrPrintf(",\"evictions\":%llu",
                   static_cast<unsigned long long>(evictions_total_));
  out += StrPrintf(",\"epoch_resets\":%llu",
                   static_cast<unsigned long long>(epoch_resets_total_));
  out += ",\"entries\":[";
  bool first = true;
  for (const auto& [fingerprint, entry] : entries_) {
    if (!first) out += ",";
    first = false;
    out += StrPrintf(
        "{\"fingerprint\":\"0x%016llx\",\"label\":\"%s\",\"epoch\":%llu,"
        "\"observations\":%llu,\"k_eq\":%.9g,\"n_eq\":%.9g,"
        "\"last_estimated\":%.9g,\"last_actual\":%.9g}",
        static_cast<unsigned long long>(fingerprint),
        JsonEscape(entry.label).c_str(),
        static_cast<unsigned long long>(entry.epoch),
        static_cast<unsigned long long>(entry.observations), entry.k_eq,
        entry.n_eq, entry.last_estimated, entry.last_actual);
  }
  out += "]}";
  return out;
}

void FeedbackStore::PublishMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetGauge("estimator.learned.fingerprints")
      ->Set(static_cast<double>(entries_.size()));
  const auto sync = [metrics](const char* name, uint64_t value) {
    obs::Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("estimator.learned.observations", observations_total_);
  sync("estimator.learned.dropped", dropped_total_);
  sync("estimator.learned.evictions", evictions_total_);
  sync("estimator.learned.epoch_resets", epoch_resets_total_);
}

void FeedbackStore::Reset() { entries_.clear(); }

}  // namespace learn
}  // namespace robustqo
