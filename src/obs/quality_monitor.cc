#include "obs/quality_monitor.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace robustqo {
namespace obs {

namespace {

// The symmetric relative error factor: max(est/act, act/est), with both
// sides floored at one row so empty results do not divide by zero. Kept
// local because core/report.h (which has the canonical copy) sits above
// obs in the layer order.
double QError(double estimated, double actual) {
  const double est = std::max(estimated, 1.0);
  const double act = std::max(actual, 1.0);
  return est > act ? est / act : act / est;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

std::string JsonNumber(double value) { return StrPrintf("%.9g", value); }

}  // namespace

EstimationQualityMonitor::EstimationQualityMonitor(QualityMonitorConfig config)
    : config_(config) {}

void EstimationQualityMonitor::Record(const QualityObservation& observation) {
  if (observation.fingerprint == 0) return;
  Profile& profile = profiles_[observation.fingerprint];
  if (profile.label.empty()) profile.label = observation.label;

  const double q = QError(observation.estimated_rows, observation.actual_rows);
  profile.observations += 1;
  observation_count_ += 1;
  profile.q_sketch.Observe(q);
  profile.q_max = std::max(profile.q_max, q);

  if (profile.baseline.size() < config_.baseline_window) {
    profile.baseline.push_back(q);
  } else {
    profile.recent.push_back(q);
    while (profile.recent.size() > config_.recent_window) {
      profile.recent.pop_front();
    }
    if (IsDrifted(profile)) {
      drifted_.insert(observation.fingerprint);
    } else {
      drifted_.erase(observation.fingerprint);
    }
  }

  if (observation.confidence_threshold > 0.0) {
    profile.bound_checks += 1;
    profile.threshold_sum += observation.confidence_threshold;
    // The robust estimator inverts the posterior at T as an UPPER bound on
    // the true cardinality, so the bound held iff the actual stayed at or
    // under the estimate.
    if (observation.actual_rows <= observation.estimated_rows) {
      profile.bound_holds += 1;
    }
  }
}

FingerprintQuality EstimationQualityMonitor::Summarize(
    uint64_t fingerprint, const Profile& profile) const {
  FingerprintQuality out;
  out.fingerprint = fingerprint;
  out.label = profile.label;
  out.observations = profile.observations;
  out.q_p50 = profile.q_sketch.Quantile(0.5);
  out.q_p90 = profile.q_sketch.Quantile(0.9);
  out.q_p99 = profile.q_sketch.Quantile(0.99);
  out.q_max = profile.q_max;
  out.bound_checks = profile.bound_checks;
  out.bound_holds = profile.bound_holds;
  if (profile.bound_checks > 0) {
    out.bound_hit_rate = static_cast<double>(profile.bound_holds) /
                         static_cast<double>(profile.bound_checks);
    out.mean_threshold =
        profile.threshold_sum / static_cast<double>(profile.bound_checks);
  }
  out.baseline_median_q = Median(profile.baseline);
  out.recent_median_q =
      Median({profile.recent.begin(), profile.recent.end()});
  if (profile.baseline.size() >= config_.min_observations &&
      profile.recent.size() >= config_.min_observations &&
      out.baseline_median_q > 0.0) {
    out.drift_ratio = out.recent_median_q / out.baseline_median_q;
    out.drifted = out.drift_ratio >= config_.drift_factor;
  }
  return out;
}

bool EstimationQualityMonitor::IsDrifted(const Profile& profile) const {
  if (profile.baseline.size() < config_.min_observations ||
      profile.recent.size() < config_.min_observations) {
    return false;
  }
  const double baseline = Median(profile.baseline);
  if (!(baseline > 0.0)) return false;
  const double recent = Median({profile.recent.begin(), profile.recent.end()});
  return recent / baseline >= config_.drift_factor;
}

std::vector<FingerprintQuality> EstimationQualityMonitor::Snapshot() const {
  std::vector<FingerprintQuality> out;
  out.reserve(profiles_.size());
  for (const auto& [fingerprint, profile] : profiles_) {
    out.push_back(Summarize(fingerprint, profile));
  }
  return out;
}

std::vector<FingerprintQuality> EstimationQualityMonitor::Drifted() const {
  std::vector<FingerprintQuality> out;
  out.reserve(drifted_.size());
  for (uint64_t fingerprint : drifted_) {
    out.push_back(Summarize(fingerprint, profiles_.at(fingerprint)));
  }
  return out;
}

std::string EstimationQualityMonitor::ReportText() const {
  std::string out = StrPrintf(
      "estimation quality: %llu observation(s) across %llu fingerprint(s)\n",
      static_cast<unsigned long long>(observation_count_),
      static_cast<unsigned long long>(profiles_.size()));
  out += StrPrintf("%-18s %6s %8s %8s %8s %9s %8s %s\n", "fingerprint", "n",
                   "q50", "q99", "qmax", "bound-hit", "drift", "status");
  for (const FingerprintQuality& q : Snapshot()) {
    const std::string hit =
        q.bound_checks == 0
            ? std::string("-")
            : StrPrintf("%.0f%%/%.0f%%", 100.0 * q.bound_hit_rate,
                        100.0 * q.mean_threshold);
    const std::string drift =
        q.drift_ratio > 0.0 ? StrPrintf("%.2fx", q.drift_ratio)
                            : std::string("-");
    out += StrPrintf("0x%016llx %6llu %8.2f %8.2f %8.2f %9s %8s %s\n",
                     static_cast<unsigned long long>(q.fingerprint),
                     static_cast<unsigned long long>(q.observations), q.q_p50,
                     q.q_p99, q.q_max, hit.c_str(), drift.c_str(),
                     q.drifted ? "DRIFTED" : "ok");
    if (!q.label.empty()) out += "  " + q.label + "\n";
  }
  return out;
}

std::string EstimationQualityMonitor::ReportJson() const {
  std::string out = StrPrintf(
      "{\"observations\":%llu,\"fingerprints\":[",
      static_cast<unsigned long long>(observation_count_));
  bool first = true;
  for (const FingerprintQuality& q : Snapshot()) {
    out += StrPrintf(
        "%s{\"fingerprint\":\"0x%016llx\",\"label\":\"%s\","
        "\"observations\":%llu,"
        "\"q_p50\":%s,\"q_p90\":%s,\"q_p99\":%s,\"q_max\":%s,"
        "\"bound_checks\":%llu,\"bound_holds\":%llu,\"bound_hit_rate\":%s,"
        "\"mean_threshold\":%s,\"baseline_median_q\":%s,"
        "\"recent_median_q\":%s,\"drift_ratio\":%s,\"drifted\":%s}",
        first ? "" : ",",
        static_cast<unsigned long long>(q.fingerprint),
        JsonEscape(q.label).c_str(),
        static_cast<unsigned long long>(q.observations),
        JsonNumber(q.q_p50).c_str(), JsonNumber(q.q_p90).c_str(),
        JsonNumber(q.q_p99).c_str(), JsonNumber(q.q_max).c_str(),
        static_cast<unsigned long long>(q.bound_checks),
        static_cast<unsigned long long>(q.bound_holds),
        JsonNumber(q.bound_hit_rate).c_str(),
        JsonNumber(q.mean_threshold).c_str(),
        JsonNumber(q.baseline_median_q).c_str(),
        JsonNumber(q.recent_median_q).c_str(),
        JsonNumber(q.drift_ratio).c_str(), q.drifted ? "true" : "false");
    first = false;
  }
  out += "]}";
  return out;
}

void EstimationQualityMonitor::PublishMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetGauge("estimator.quality.fingerprints")
      ->Set(static_cast<double>(profiles_.size()));
  metrics->GetGauge("estimator.quality.observations")
      ->Set(static_cast<double>(observation_count_));

  uint64_t bound_checks = 0;
  uint64_t bound_holds = 0;
  double threshold_sum = 0.0;
  double worst_q = 0.0;
  // Rebuilt from scratch so repeated publishes stay idempotent: the merged
  // sketch is the union of the per-fingerprint sketches, not an append.
  QuantileSketch merged(0.01);
  for (const auto& [fingerprint, profile] : profiles_) {
    bound_checks += profile.bound_checks;
    bound_holds += profile.bound_holds;
    threshold_sum += profile.threshold_sum;
    worst_q = std::max(worst_q, profile.q_max);
    merged.Merge(profile.q_sketch);
  }
  metrics->GetGauge("estimator.quality.drifted_fingerprints")
      ->Set(static_cast<double>(drifted_.size()));
  metrics->GetGauge("estimator.quality.bound_checks")
      ->Set(static_cast<double>(bound_checks));
  metrics->GetGauge("estimator.quality.bound_holds")
      ->Set(static_cast<double>(bound_holds));
  metrics->GetGauge("estimator.quality.bound_hit_rate")
      ->Set(bound_checks > 0 ? static_cast<double>(bound_holds) /
                                   static_cast<double>(bound_checks)
                             : 0.0);
  metrics->GetGauge("estimator.quality.mean_threshold")
      ->Set(bound_checks > 0 ? threshold_sum / static_cast<double>(bound_checks)
                             : 0.0);
  metrics->GetGauge("estimator.quality.q_error_max")->Set(worst_q);
  QuantileSketch* sketch =
      metrics->GetSketch("estimator.quality.q_error", 0.01);
  sketch->Reset();
  sketch->Merge(merged);
}

void EstimationQualityMonitor::Reset() {
  profiles_.clear();
  drifted_.clear();
  observation_count_ = 0;
}

}  // namespace obs
}  // namespace robustqo
