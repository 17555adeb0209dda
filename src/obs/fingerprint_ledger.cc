#include "obs/fingerprint_ledger.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "obs/exporters.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace robustqo {
namespace obs {

namespace {

/// Relative accuracy of every sketch the ledger publishes.
constexpr double kSketchAccuracy = 0.01;

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

/// One quality report row: the aligned columns, then the label.
std::string QualityLine(const FingerprintQuality& q) {
  const std::string hit =
      q.bound_checks == 0
          ? std::string("-")
          : StrPrintf("%.0f%%/%.0f%%", 100.0 * q.bound_hit_rate,
                      100.0 * q.mean_threshold);
  const std::string drift = q.drift_ratio > 0.0
                                ? StrPrintf("%.2fx", q.drift_ratio)
                                : std::string("-");
  std::string out = StrPrintf(
      "0x%016llx %6llu %8.2f %8.2f %8.2f %9s %8s %s\n",
      static_cast<unsigned long long>(q.fingerprint),
      static_cast<unsigned long long>(q.observations), q.q_p50, q.q_p99,
      q.q_max, hit.c_str(), drift.c_str(), q.drifted ? "DRIFTED" : "ok");
  if (!q.label.empty()) out.append("  ").append(q.label).append("\n");
  return out;
}

std::string QualityHeader() {
  return StrPrintf("%-18s %6s %8s %8s %8s %9s %8s %s\n", "fingerprint", "n",
                   "q50", "q99", "qmax", "bound-hit", "drift", "status");
}

std::string QuantileLine(const char* label, const QuantileSketch& sketch) {
  return StrPrintf(
      "  %-10s (simulated s): p50=%.6f p95=%.6f p99=%.6f n=%llu\n", label,
      sketch.Quantile(0.5), sketch.Quantile(0.95), sketch.Quantile(0.99),
      static_cast<unsigned long long>(sketch.count()));
}

/// Worst scopes by a tail statistic, listed (p99 desc, input order) so
/// listings are deterministic even under ties; `ranked` holds (tail, key,
/// scope) in key order.
std::string WorstScopes(
    std::vector<std::pair<double, std::pair<std::string, const SloScope*>>>
        ranked,
    const char* title) {
  if (ranked.empty()) return "";
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::string out = StrPrintf("  %s:", title);
  const size_t n = std::min(FingerprintLedger::kReportTopK, ranked.size());
  for (size_t i = 0; i < n; ++i) {
    out += StrPrintf(
        " %s p99=%.6f n=%llu%s", ranked[i].second.first.c_str(),
        ranked[i].first,
        static_cast<unsigned long long>(ranked[i].second.second->observed),
        i + 1 < n ? ";" : "");
  }
  out += "\n";
  return out;
}

void RecordSloInto(SloScope* scope, bool failed, double queue_wait,
                   double service, double regret, double ratio) {
  ++scope->observed;
  scope->queue_wait.Observe(queue_wait);
  if (failed) {
    ++scope->failed;
    return;
  }
  scope->service.Observe(service);
  scope->regret.Observe(regret);
  if (regret > 0.0) ++scope->regret_positive;
  scope->worst_regret_ratio = std::max(scope->worst_regret_ratio, ratio);
}

void SyncCounter(MetricsRegistry* metrics, const char* name, uint64_t value) {
  Counter* counter = metrics->GetCounter(name);
  counter->Increment(value - counter->value());
}

/// Rebuilds a published sketch from `source`, so republishing never
/// double-counts.
void Republish(MetricsRegistry* metrics, const char* name,
               const QuantileSketch& source) {
  QuantileSketch* sketch = metrics->GetSketch(name, kSketchAccuracy);
  sketch->Reset();
  sketch->Merge(source);
}

}  // namespace

FingerprintLedger::FingerprintLedger(QualityConfig quality)
    : quality_config_(quality) {}

FingerprintLedger::Row& FingerprintLedger::Touch(uint64_t fingerprint) {
  auto [it, inserted] = rows_.try_emplace(fingerprint);
  Row& row = it->second;
  if (!inserted) recency_.erase(row.last_recorded);
  row.last_recorded = next_recorded_++;
  recency_.emplace_hint(recency_.end(), row.last_recorded, fingerprint);
  // The touched row holds the newest stamp, so it is never the victim.
  if (inserted && rows_.size() > kMaxRows) Evict(recency_.begin()->second);
  return row;
}

void FingerprintLedger::Evict(uint64_t fingerprint) {
  auto it = rows_.find(fingerprint);
  const Row& row = it->second;
  if (row.slo.observed > 0) --slo_fingerprints_;
  if (row.quality.observations > 0) --quality_fingerprints_;
  observation_count_ -= row.quality.observations;
  drifted_.erase(fingerprint);
  plan_count_ -= row.plans.size();
  plan_stats_.evicted += row.plans.size();
  plan_stats_.diffs_evicted +=
      std::erase_if(plan_diffs_, [fingerprint](const PlanDiffRecord& d) {
        return d.fingerprint == fingerprint;
      });
  recency_.erase(row.last_recorded);
  rows_.erase(it);
  if (fingerprint == latest_plan_) {
    const std::vector<const PlanProvenanceRecord*> plans = PlanSnapshot();
    latest_plan_ = plans.empty() ? 0 : plans.back()->fingerprint;
  }
}

// ---- Recording ----

void FingerprintLedger::Record(const RequestObservation& request,
                               const QualityObservation* quality,
                               const RequestTrace* trace) {
  const double queue_wait = QueueWaitSeconds(request.queue_waves);
  const double service = ServiceSeconds(request.actual_seconds,
                                        request.cache_hit, request.dml);
  // Realized regret: how far the execution overshot the plan's promise.
  // An actual below the estimate is zero regret, not negative — the
  // robust choice delivered what it advertised (or better).
  const double regret =
      request.failed
          ? 0.0
          : std::max(0.0, request.actual_seconds - request.estimated_seconds);
  const double ratio = (request.failed || request.estimated_seconds <= 0.0)
                           ? 0.0
                           : request.actual_seconds / request.estimated_seconds;
  RecordSloInto(&global_, request.failed, queue_wait, service, regret, ratio);
  RecordSloInto(&sessions_[request.session_label], request.failed, queue_wait,
                service, regret, ratio);

  Row& row = Touch(request.fingerprint);
  if (row.slo.observed == 0) ++slo_fingerprints_;
  RecordSloInto(&row.slo, request.failed, queue_wait, service, regret, ratio);
  if (row.tables.empty()) row.tables = request.tables;
  if (quality != nullptr && request.fingerprint != 0) {
    RecordQualityInto(request.fingerprint, *quality, &row);
  }
  if (trace == nullptr) return;
  // The slowest exemplar is the service column's evidence, which observes
  // successful requests only.
  if (!trace->failed && (!row.slowest.has_value() ||
                         trace->service_seconds > row.slowest->service_seconds)) {
    row.slowest = *trace;
  }
  if (trace->IsIncident()) row.incident = *trace;
}

void FingerprintLedger::RecordQuality(uint64_t fingerprint,
                                      const QualityObservation& observation) {
  if (fingerprint == 0) return;
  RecordQualityInto(fingerprint, observation, &Touch(fingerprint));
}

void FingerprintLedger::RecordQualityInto(
    uint64_t fingerprint, const QualityObservation& observation, Row* row) {
  QualityProfile& profile = row->quality;
  if (profile.observations == 0) ++quality_fingerprints_;
  if (profile.label.empty()) profile.label = observation.label;

  const double q = QError(observation.estimated_rows, observation.actual_rows);
  profile.observations += 1;
  observation_count_ += 1;
  profile.q_sketch.Observe(q);
  profile.q_max = std::max(profile.q_max, q);

  if (profile.baseline.size() < quality_config_.baseline_window) {
    profile.baseline.push_back(q);
  } else {
    profile.recent.push_back(q);
    while (profile.recent.size() > quality_config_.recent_window) {
      profile.recent.pop_front();
    }
    if (IsDrifted(profile)) {
      drifted_.insert(fingerprint);
    } else {
      drifted_.erase(fingerprint);
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

const std::set<std::string>& FingerprintLedger::Tables(
    uint64_t fingerprint) const {
  static const std::set<std::string> kNone;
  auto it = rows_.find(fingerprint);
  return it == rows_.end() ? kNone : it->second.tables;
}

std::string FingerprintLedger::RowText(uint64_t fingerprint) const {
  auto it = rows_.find(fingerprint);
  if (it == rows_.end()) {
    return StrPrintf("fp: no ledger row for %s\n",
                     FingerprintHex(fingerprint).c_str());
  }
  const Row& row = it->second;
  std::string out =
      StrPrintf("fp %s reads {", FingerprintHex(fingerprint).c_str());
  for (const std::string& table : row.tables) {
    if (out.back() != '{') out += ",";
    out += table;
  }
  out += "}\n";
  const SloScope& s = row.slo;
  out += StrPrintf(
      "  slo: observed=%llu failed=%llu service_p99=%.6f regret_p99=%.6f "
      "regret_positive=%llu worst_ratio=%.4f\n",
      static_cast<unsigned long long>(s.observed),
      static_cast<unsigned long long>(s.failed), s.service.Quantile(0.99),
      s.regret.Quantile(0.99),
      static_cast<unsigned long long>(s.regret_positive),
      s.worst_regret_ratio);
  if (row.quality.observations == 0) {
    out += "  quality: no observations since the last statistics rebuild\n";
  } else {
    FingerprintQuality quality = Summarize(fingerprint, row.quality);
    const std::string label = std::move(quality.label);
    out.append("  quality: ").append(QualityHeader());
    out.append("  ").append(QualityLine(quality));
    out.append("    ").append(label).append("\n");
  }
  const PlanProvenanceRecord* plan = NewestPlan(row);
  out += plan != nullptr ? WinnerLine(*plan)
                         : std::string("  winner: no provenance retained\n");
  std::vector<Exemplar> exemplars;
  AppendExemplars(fingerprint, row, &exemplars);
  for (const Exemplar& exemplar : exemplars) {
    out += ExemplarLine(exemplar, /*with_fingerprint=*/false);
  }
  return out;
}

void FingerprintLedger::PublishMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  PublishQualityMetrics(metrics);
  SyncCounter(metrics, "server.slo.observed", global_.observed);
  SyncCounter(metrics, "server.slo.failed", global_.failed);
  SyncCounter(metrics, "optimizer.regret.positive", global_.regret_positive);
  metrics->GetGauge("server.slo.sessions_tracked")
      ->Set(static_cast<double>(sessions_.size()));
  metrics->GetGauge("server.slo.fingerprints_tracked")
      ->Set(static_cast<double>(slo_fingerprints_));
  metrics->GetGauge("optimizer.regret.worst_ratio")
      ->Set(global_.worst_regret_ratio);
  Republish(metrics, "server.slo.queue_wait_seconds", global_.queue_wait);
  Republish(metrics, "server.slo.service_seconds", global_.service);
  Republish(metrics, "optimizer.regret.seconds", global_.regret);
  SyncCounter(metrics, "optimizer.provenance.recorded", plan_stats_.recorded);
  SyncCounter(metrics, "optimizer.provenance.evicted", plan_stats_.evicted);
  SyncCounter(metrics, "optimizer.provenance.diffs", plan_stats_.diffs);
  SyncCounter(metrics, "optimizer.provenance.diffs_evicted",
              plan_stats_.diffs_evicted);
  SyncCounter(metrics, "optimizer.sensitivity.fragile_plans",
              plan_stats_.fragile);
  SyncCounter(metrics, "optimizer.sensitivity.stable_plans",
              plan_stats_.stable);
  metrics->GetGauge("optimizer.provenance.records")
      ->Set(static_cast<double>(plan_count_));
  metrics->GetGauge("optimizer.sensitivity.crossover_quantile")
      ->Set(last_crossover_);
}

// ---- Quality columns ----

FingerprintQuality FingerprintLedger::Summarize(
    uint64_t fingerprint, const QualityProfile& profile) const {
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
  if (profile.baseline.size() >= quality_config_.min_observations &&
      profile.recent.size() >= quality_config_.min_observations &&
      out.baseline_median_q > 0.0) {
    out.drift_ratio = out.recent_median_q / out.baseline_median_q;
    out.drifted = out.drift_ratio >= quality_config_.drift_factor;
  }
  return out;
}

bool FingerprintLedger::IsDrifted(const QualityProfile& profile) const {
  if (profile.baseline.size() < quality_config_.min_observations ||
      profile.recent.size() < quality_config_.min_observations) {
    return false;
  }
  const double baseline = Median(profile.baseline);
  if (!(baseline > 0.0)) return false;
  const double recent = Median({profile.recent.begin(), profile.recent.end()});
  return recent / baseline >= quality_config_.drift_factor;
}

std::vector<FingerprintQuality> FingerprintLedger::Snapshot() const {
  std::vector<FingerprintQuality> out;
  out.reserve(quality_fingerprints_);
  for (const auto& [fingerprint, row] : rows_) {
    if (row.quality.observations == 0) continue;
    out.push_back(Summarize(fingerprint, row.quality));
  }
  return out;
}

std::vector<FingerprintQuality> FingerprintLedger::Drifted() const {
  std::vector<FingerprintQuality> out;
  out.reserve(drifted_.size());
  for (uint64_t fingerprint : drifted_) {
    out.push_back(Summarize(fingerprint, rows_.at(fingerprint).quality));
  }
  return out;
}

std::string FingerprintLedger::QualityReportText() const {
  std::string out = StrPrintf(
      "estimation quality: %llu observation(s) across %llu fingerprint(s)\n",
      static_cast<unsigned long long>(observation_count_),
      static_cast<unsigned long long>(quality_fingerprints_));
  out += QualityHeader();
  for (const FingerprintQuality& q : Snapshot()) out += QualityLine(q);
  return out;
}

void FingerprintLedger::PublishQualityMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetGauge("estimator.quality.fingerprints")
      ->Set(static_cast<double>(quality_fingerprints_));
  metrics->GetGauge("estimator.quality.observations")
      ->Set(static_cast<double>(observation_count_));

  uint64_t bound_checks = 0;
  uint64_t bound_holds = 0;
  double threshold_sum = 0.0;
  double worst_q = 0.0;
  // The merged sketch is the union of the per-fingerprint sketches.
  QuantileSketch merged(kSketchAccuracy);
  for (const auto& [fingerprint, row] : rows_) {
    const QualityProfile& profile = row.quality;
    if (profile.observations == 0) continue;
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
  Republish(metrics, "estimator.quality.q_error", merged);
}

void FingerprintLedger::ResetQuality() {
  for (auto& [fingerprint, row] : rows_) row.quality = QualityProfile();
  drifted_.clear();
  observation_count_ = 0;
  quality_fingerprints_ = 0;
}

// ---- SLO columns ----

const SloScope* FingerprintLedger::SessionScope(
    const std::string& label) const {
  auto it = sessions_.find(label);
  return it == sessions_.end() ? nullptr : &it->second;
}

const SloScope* FingerprintLedger::FingerprintScope(
    uint64_t fingerprint) const {
  auto it = rows_.find(fingerprint);
  return it == rows_.end() || it->second.slo.observed == 0 ? nullptr
                                                           : &it->second.slo;
}

std::string FingerprintLedger::SloReportText() const {
  std::string out = StrPrintf(
      "slo: observed=%llu failed=%llu sessions=%zu fingerprints=%zu\n",
      static_cast<unsigned long long>(global_.observed),
      static_cast<unsigned long long>(global_.failed), sessions_.size(),
      slo_fingerprints_);
  out += QuantileLine("queue_wait", global_.queue_wait);
  out += QuantileLine("service", global_.service);
  out += QuantileLine("regret", global_.regret);
  out += StrPrintf(
      "  regret: positive=%llu worst_ratio=%.4f\n",
      static_cast<unsigned long long>(global_.regret_positive),
      global_.worst_regret_ratio);
  std::vector<std::pair<double, std::pair<std::string, const SloScope*>>>
      ranked;
  for (const auto& [label, scope] : sessions_) {
    ranked.push_back({scope.service.Quantile(0.99), {label, &scope}});
  }
  out += WorstScopes(std::move(ranked), "worst sessions (service p99)");
  ranked.clear();
  for (const auto& [fingerprint, row] : rows_) {
    if (row.slo.observed == 0) continue;
    ranked.push_back({row.slo.regret.Quantile(0.99),
                      {FingerprintHex(fingerprint), &row.slo}});
  }
  out += WorstScopes(std::move(ranked), "worst fingerprints (regret p99)");
  return out;
}

// ---- Exemplars ----

void FingerprintLedger::AppendExemplars(uint64_t fingerprint, const Row& row,
                                        std::vector<Exemplar>* out) {
  const bool same = row.slowest && row.incident &&
                    row.slowest->request_id == row.incident->request_id;
  if (row.incident) out->push_back({fingerprint, &*row.incident, same, true});
  if (row.slowest && !same) {
    out->push_back({fingerprint, &*row.slowest, true, false});
  }
}

std::vector<FingerprintLedger::Exemplar> FingerprintLedger::Exemplars()
    const {
  std::vector<Exemplar> out;
  for (const auto& [fingerprint, row] : rows_) {
    AppendExemplars(fingerprint, row, &out);
  }
  // A request records into exactly one row, so request ids are unique.
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    return a.trace->request_id < b.trace->request_id;
  });
  return out;
}

std::string FingerprintLedger::ExemplarLine(const Exemplar& exemplar,
                                            bool with_fingerprint) const {
  const RequestTrace& t = *exemplar.trace;
  std::string reasons;
  if (exemplar.incident) reasons += "incident";
  if (exemplar.slowest) reasons += reasons.empty() ? "slowest" : ",slowest";
  std::string out = StrPrintf("  [%-16s] ", reasons.c_str());
  if (with_fingerprint) {
    out.append("fp=").append(FingerprintHex(exemplar.fingerprint)).append(" ");
  }
  out += StrPrintf(
      "req=%llu session=%llu (%s) status=%s cache=%s waves=%llu "
      "queue_wait=%.6f service=%.6f faults=%llu\n",
      static_cast<unsigned long long>(t.request_id),
      static_cast<unsigned long long>(t.session_id), t.session_label.c_str(),
      t.status.c_str(), t.cache_outcome.empty() ? "-" : t.cache_outcome.c_str(),
      static_cast<unsigned long long>(t.waves_waited),
      QueueWaitSeconds(t.waves_waited), t.service_seconds,
      static_cast<unsigned long long>(t.fault_fires));
  return out;
}

std::string FingerprintLedger::ExemplarText() const {
  const std::vector<Exemplar> exemplars = Exemplars();
  std::string out = StrPrintf("exemplars: %zu request(s)\n", exemplars.size());
  for (const Exemplar& exemplar : exemplars) {
    out += ExemplarLine(exemplar, /*with_fingerprint=*/true);
  }
  return out;
}

std::string FingerprintLedger::ExemplarChromeTrace() const {
  std::vector<TraceLane> lanes;
  for (const Exemplar& exemplar : Exemplars()) {
    const RequestTrace& t = *exemplar.trace;
    TraceLane lane;
    lane.pid = t.session_id;
    lane.tid = t.request_id;
    lane.process_name =
        t.session_label.empty()
            ? StrPrintf("session %llu",
                        static_cast<unsigned long long>(t.session_id))
            : t.session_label;
    lane.thread_name =
        StrPrintf("request %llu [%s]",
                  static_cast<unsigned long long>(t.request_id),
                  t.status.c_str());
    lane.events = t.events;
    lanes.push_back(std::move(lane));
  }
  std::sort(lanes.begin(), lanes.end(),
            [](const TraceLane& a, const TraceLane& b) {
              return std::tie(a.pid, a.tid) < std::tie(b.pid, b.tid);
            });
  return obs::ToChromeTrace(lanes);
}

// ---- Plan columns ----

const PlanDiffRecord* FingerprintLedger::RecordPlan(
    PlanProvenanceRecord record, const std::string& trigger) {
  const uint64_t fingerprint = record.fingerprint;
  Row& row = Touch(fingerprint);
  ++plan_stats_.recorded;
  const PlanSensitivity& now = record.sensitivity;
  if (now.available) {
    if (now.stable) ++plan_stats_.stable;
    if (now.crossover_quantile >= 0.0) {
      ++plan_stats_.fragile;
      last_crossover_ = now.crossover_quantile;
    }
  }
  // A re-planned statement diffs against what the row last knew about
  // it, whatever T% or estimator that record was planned at.
  std::optional<PlanDiffRecord> diff;
  if (const PlanProvenanceRecord* prior = NewestPlan(row)) {
    diff.emplace();
    diff->fingerprint = fingerprint;
    diff->trigger = trigger;
    diff->old_epoch = prior->epoch;
    diff->new_epoch = record.epoch;
    diff->old_label = prior->plan_label;
    diff->new_label = record.plan_label;
    diff->old_cost = prior->estimated_cost;
    diff->new_cost = record.estimated_cost;
    diff->plan_changed = diff->old_label != diff->new_label;
    if (now.available && !now.candidates.empty()) {
      diff->grid = now.grid;
      diff->new_curve = now.candidates.front().cost_at;
    }
    const PlanSensitivity& before = prior->sensitivity;
    if (before.available && !before.candidates.empty()) {
      if (diff->grid.empty()) diff->grid = before.grid;
      diff->old_curve = before.candidates.front().cost_at;
    }
    diff->old_verdict = before.verdict;
    diff->new_verdict = now.verdict;
  }
  record.sequence = next_plan_sequence_++;
  auto [it, inserted] = row.plans.insert_or_assign(
      PlanKey{record.threshold_bits, record.estimator}, std::move(record));
  (void)it;
  if (inserted) ++plan_count_;
  latest_plan_ = fingerprint;
  if (!diff.has_value()) return nullptr;
  diff->sequence = next_plan_sequence_++;
  ++plan_stats_.diffs;
  plan_diffs_.push_back(std::move(*diff));
  if (plan_diffs_.size() > kMaxPlanDiffs) {
    plan_diffs_.pop_front();
    ++plan_stats_.diffs_evicted;
  }
  return &plan_diffs_.back();
}

const PlanProvenanceRecord* FingerprintLedger::NewestPlan(const Row& row) {
  const PlanProvenanceRecord* best = nullptr;
  for (const auto& [key, record] : row.plans) {
    if (best == nullptr || record.sequence > best->sequence) best = &record;
  }
  return best;
}

const PlanProvenanceRecord* FingerprintLedger::FindPlan(
    uint64_t fingerprint) const {
  auto it = rows_.find(fingerprint);
  return it == rows_.end() ? nullptr : NewestPlan(it->second);
}

const PlanProvenanceRecord* FingerprintLedger::LatestPlan() const {
  return FindPlan(latest_plan_);
}

std::vector<const PlanProvenanceRecord*> FingerprintLedger::PlanSnapshot()
    const {
  std::vector<const PlanProvenanceRecord*> out;
  out.reserve(plan_count_);
  for (const auto& [fingerprint, row] : rows_) {
    for (const auto& [key, record] : row.plans) out.push_back(&record);
  }
  std::sort(out.begin(), out.end(),
            [](const PlanProvenanceRecord* a, const PlanProvenanceRecord* b) {
              return a->sequence < b->sequence;
            });
  return out;
}

std::string FingerprintLedger::PlanReportText() const {
  std::string out = StrPrintf(
      "plan provenance: %zu records, %zu diffs (recorded=%llu evicted=%llu "
      "fragile=%llu stable=%llu)\n",
      plan_count_, plan_diffs_.size(),
      static_cast<unsigned long long>(plan_stats_.recorded),
      static_cast<unsigned long long>(plan_stats_.evicted),
      static_cast<unsigned long long>(plan_stats_.fragile),
      static_cast<unsigned long long>(plan_stats_.stable));
  for (const PlanProvenanceRecord* r : PlanSnapshot()) {
    const char* badge = "-       ";
    if (r->sensitivity.available) {
      badge = r->sensitivity.stable ? "stable  " : "fragile ";
    }
    out += StrPrintf(
        "  [%s] fp=%s T=%.4g est=%s epoch=%llu plan=%s cost=%.6g\n", badge,
        FingerprintHex(r->fingerprint).c_str(), r->sensitivity.threshold,
        r->estimator.c_str(), static_cast<unsigned long long>(r->epoch),
        r->plan_label.c_str(), r->estimated_cost);
  }
  for (const PlanDiffRecord& d : plan_diffs_) {
    out += StrPrintf(
        "  [diff    ] fp=%s trigger=%s epoch %llu->%llu plan %s -> %s "
        "cost %.6g -> %.6g\n",
        FingerprintHex(d.fingerprint).c_str(), d.trigger.c_str(),
        static_cast<unsigned long long>(d.old_epoch),
        static_cast<unsigned long long>(d.new_epoch), d.old_label.c_str(),
        d.new_label.c_str(), d.old_cost, d.new_cost);
  }
  return out;
}

std::string FingerprintLedger::PlanReportFor(uint64_t fingerprint) const {
  const PlanProvenanceRecord* record = FindPlan(fingerprint);
  if (record == nullptr) {
    return StrPrintf("whyplan: no provenance retained for fp=%s\n",
                     FingerprintHex(fingerprint).c_str());
  }
  std::vector<const PlanDiffRecord*> diffs;
  for (const PlanDiffRecord& d : plan_diffs_) {
    if (d.fingerprint == fingerprint) diffs.push_back(&d);
  }
  return WhyplanText(*record, diffs);
}

}  // namespace obs
}  // namespace robustqo
