#include "obs/plan_provenance.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/exporters.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace robustqo {
namespace obs {

namespace {

std::string Num(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return "null";
  return StrPrintf("%.9g", value);
}

std::string DoubleArrayJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string SensitivityJson(const PlanSensitivity& s) {
  std::string out = StrPrintf(
      "{\"captured\":%s,\"available\":%s,\"threshold\":%s,"
      "\"stable\":%s,\"max_regret_pct\":%s,\"crossover_quantile\":%s,"
      "\"crossover_rival\":\"%s\",\"verdict\":\"%s\","
      "\"unavailable_reason\":\"%s\",\"grid\":",
      s.captured ? "true" : "false", s.available ? "true" : "false",
      Num(s.threshold).c_str(), s.stable ? "true" : "false",
      Num(s.max_regret_pct).c_str(), Num(s.crossover_quantile).c_str(),
      JsonEscape(s.crossover_rival).c_str(), JsonEscape(s.verdict).c_str(),
      JsonEscape(s.unavailable_reason).c_str());
  out += DoubleArrayJson(s.grid);
  out += ",\"selectivity\":" + DoubleArrayJson(s.selectivity);
  out += ",\"candidates\":[";
  for (size_t i = 0; i < s.candidates.size(); ++i) {
    const CandidateCurve& c = s.candidates[i];
    if (i > 0) out += ",";
    out += StrPrintf(
        "{\"label\":\"%s\",\"cost\":%s,\"rows\":%s,"
        "\"curve_available\":%s,\"cost_at\":",
        JsonEscape(c.label).c_str(), Num(c.cost).c_str(), Num(c.rows).c_str(),
        c.curve_available ? "true" : "false");
    out += DoubleArrayJson(c.cost_at);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string QuantileLabel(double quantile) {
  return StrPrintf("p%.0f", quantile * 100.0);
}

void FinalizeSensitivity(PlanSensitivity* s) {
  s->stable = false;
  s->max_regret_pct = 0.0;
  s->crossover_quantile = -1.0;
  s->crossover_rival.clear();
  if (!s->available || s->candidates.empty() || s->grid.empty()) {
    if (s->verdict.empty()) {
      s->verdict = "sensitivity unavailable";
      if (!s->unavailable_reason.empty()) {
        s->verdict += " (" + s->unavailable_reason + ")";
      }
    }
    return;
  }
  const CandidateCurve& winner = s->candidates.front();
  const size_t points = std::min(s->grid.size(), winner.cost_at.size());
  bool dominates = true;
  for (size_t i = 0; i < points; ++i) {
    const double wc = winner.cost_at[i];
    double best = wc;
    std::string best_label;
    size_t best_rival = 0;
    for (size_t c = 1; c < s->candidates.size(); ++c) {
      const CandidateCurve& rival = s->candidates[c];
      if (i >= rival.cost_at.size()) continue;
      if (rival.cost_at[i] < best) {
        best = rival.cost_at[i];
        best_label = rival.label;
        best_rival = c;
      }
    }
    if (best < wc) {
      if (dominates) {
        // First grid point a rival undercuts the winner: interpolate the
        // crossing quantile between the previous (winner-optimal) grid
        // point and this one using the winning rival's own curve.
        double crossing = s->grid[i];
        if (i > 0) {
          const CandidateCurve& rival = s->candidates[best_rival];
          const double prev_gap = winner.cost_at[i - 1] - rival.cost_at[i - 1];
          const double now_gap = wc - best;
          const double denom = now_gap - prev_gap;
          if (prev_gap <= 0.0 && denom > 0.0) {
            const double f = -prev_gap / denom;
            crossing = s->grid[i - 1] + f * (s->grid[i] - s->grid[i - 1]);
          }
        }
        s->crossover_quantile = crossing;
        s->crossover_rival = best_label;
      }
      dominates = false;
      const double regret = (wc - best) / std::max(best, 1e-12) * 100.0;
      s->max_regret_pct = std::max(s->max_regret_pct, regret);
    }
  }
  s->stable = dominates;
  const std::string span = s->grid.empty()
                               ? ""
                               : QuantileLabel(s->grid.front()) + "-" +
                                     QuantileLabel(s->grid.back());
  if (s->stable) {
    s->verdict = "winner dominates at every grid point across " + span +
                 " (stable)";
  } else {
    s->verdict = StrPrintf(
        "winner within %.1f%% of per-quantile optimum across %s; "
        "crossover at %s vs %s",
        s->max_regret_pct, span.c_str(),
        QuantileLabel(s->crossover_quantile).c_str(),
        s->crossover_rival.c_str());
  }
}

PlanProvenanceStore::PlanProvenanceStore(PlanProvenanceConfig config)
    : config_(config) {}

void PlanProvenanceStore::Record(PlanProvenanceRecord record) {
  if (!config_.enabled || config_.capacity == 0) return;
  Key key{record.fingerprint, record.threshold_bits, record.estimator};
  record.sequence = next_sequence_++;
  ++stats_.recorded;
  if (record.sensitivity.available) {
    if (record.sensitivity.stable) ++stats_.stable;
    if (record.sensitivity.crossover_quantile >= 0.0) {
      ++stats_.fragile;
      last_crossover_ = record.sensitivity.crossover_quantile;
    }
  }
  records_[key] = std::move(record);
  while (records_.size() > config_.capacity) {
    // LRU by recording order: refreshing a key bumped its sequence, so
    // the minimum sequence is the least recently (re)recorded key.
    auto victim = records_.begin();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      if (it->second.sequence < victim->second.sequence) victim = it;
    }
    records_.erase(victim);
    ++stats_.evicted;
  }
}

void PlanProvenanceStore::RecordDiff(PlanDiffRecord diff) {
  if (!config_.enabled || config_.diff_capacity == 0) return;
  diff.sequence = next_sequence_++;
  ++stats_.diffs;
  diffs_.push_back(std::move(diff));
  while (diffs_.size() > config_.diff_capacity) {
    diffs_.pop_front();
    ++stats_.diffs_evicted;
  }
}

const PlanProvenanceRecord* PlanProvenanceStore::Find(
    uint64_t fingerprint) const {
  const PlanProvenanceRecord* best = nullptr;
  for (const auto& [key, record] : records_) {
    if (key.fingerprint != fingerprint) continue;
    if (best == nullptr || record.sequence > best->sequence) best = &record;
  }
  return best;
}

const PlanProvenanceRecord* PlanProvenanceStore::Latest() const {
  const PlanProvenanceRecord* best = nullptr;
  for (const auto& [key, record] : records_) {
    (void)key;
    if (best == nullptr || record.sequence > best->sequence) best = &record;
  }
  return best;
}

std::vector<const PlanProvenanceRecord*> PlanProvenanceStore::Snapshot()
    const {
  std::vector<const PlanProvenanceRecord*> out;
  out.reserve(records_.size());
  for (const auto& [key, record] : records_) {
    (void)key;
    out.push_back(&record);
  }
  std::sort(out.begin(), out.end(),
            [](const PlanProvenanceRecord* a, const PlanProvenanceRecord* b) {
              return a->sequence < b->sequence;
            });
  return out;
}

std::vector<const PlanDiffRecord*> PlanProvenanceStore::Diffs() const {
  std::vector<const PlanDiffRecord*> out;
  out.reserve(diffs_.size());
  for (const PlanDiffRecord& diff : diffs_) out.push_back(&diff);
  return out;
}

void PlanProvenanceStore::Absorb(PlanProvenanceStore&& other,
                                 const std::string& tag) {
  // Interleave the donor's records and diffs back in its own recording
  // order so the merged history reads like one chronological stream.
  std::vector<std::pair<uint64_t, bool>> order;  // (sequence, is_diff)
  for (const auto& [key, record] : other.records_) {
    (void)key;
    order.push_back({record.sequence, false});
  }
  for (const PlanDiffRecord& diff : other.diffs_) {
    order.push_back({diff.sequence, true});
  }
  std::sort(order.begin(), order.end());
  std::map<uint64_t, PlanProvenanceRecord> records_by_seq;
  for (auto& [key, record] : other.records_) {
    (void)key;
    records_by_seq.emplace(record.sequence, std::move(record));
  }
  std::map<uint64_t, PlanDiffRecord> diffs_by_seq;
  for (PlanDiffRecord& diff : other.diffs_) {
    diffs_by_seq.emplace(diff.sequence, std::move(diff));
  }
  for (const auto& [sequence, is_diff] : order) {
    if (is_diff) {
      PlanDiffRecord diff = std::move(diffs_by_seq.at(sequence));
      diff.tag = diff.tag.empty() ? tag : tag + "/" + diff.tag;
      RecordDiff(std::move(diff));
    } else {
      PlanProvenanceRecord record = std::move(records_by_seq.at(sequence));
      record.tag = record.tag.empty() ? tag : tag + "/" + record.tag;
      Record(std::move(record));
    }
    ++stats_.absorbed;
  }
  other.Clear();
}

std::string PlanProvenanceStore::ReportText() const {
  std::string out = StrPrintf(
      "plan provenance: %zu records, %zu diffs (recorded=%llu evicted=%llu "
      "fragile=%llu stable=%llu absorbed=%llu)\n",
      records_.size(), diffs_.size(),
      static_cast<unsigned long long>(stats_.recorded),
      static_cast<unsigned long long>(stats_.evicted),
      static_cast<unsigned long long>(stats_.fragile),
      static_cast<unsigned long long>(stats_.stable),
      static_cast<unsigned long long>(stats_.absorbed));
  for (const PlanProvenanceRecord* r : Snapshot()) {
    const char* badge = "-       ";
    if (r->sensitivity.available) {
      badge = r->sensitivity.stable ? "stable  " : "fragile ";
    }
    out += StrPrintf(
        "  [%s] fp=%s T=%.4g est=%s epoch=%llu plan=%s cost=%.6g%s%s\n",
        badge, FingerprintHex(r->fingerprint).c_str(),
        r->sensitivity.threshold, r->estimator.c_str(),
        static_cast<unsigned long long>(r->epoch), r->plan_label.c_str(),
        r->estimated_cost, r->tag.empty() ? "" : " tag=", r->tag.c_str());
  }
  for (const PlanDiffRecord* d : Diffs()) {
    out += StrPrintf(
        "  [diff    ] fp=%s trigger=%s epoch %llu->%llu plan %s -> %s "
        "cost %.6g -> %.6g%s%s\n",
        FingerprintHex(d->fingerprint).c_str(), d->trigger.c_str(),
        static_cast<unsigned long long>(d->old_epoch),
        static_cast<unsigned long long>(d->new_epoch), d->old_label.c_str(),
        d->new_label.c_str(), d->old_cost, d->new_cost,
        d->tag.empty() ? "" : " tag=", d->tag.c_str());
  }
  return out;
}

std::string WinnerLine(const PlanProvenanceRecord& record) {
  return StrPrintf(
      "  winner: %s cost=%.6g rows=%.6g epoch=%llu T=%.4g estimator=%s\n",
      record.plan_label.c_str(), record.estimated_cost, record.estimated_rows,
      static_cast<unsigned long long>(record.epoch),
      record.sensitivity.threshold, record.estimator.c_str());
}

std::string PlanProvenanceStore::ReportFor(uint64_t fingerprint) const {
  const PlanProvenanceRecord* r = Find(fingerprint);
  if (r == nullptr) {
    return StrPrintf("whyplan: no provenance retained for fp=%s\n",
                     FingerprintHex(fingerprint).c_str());
  }
  const PlanSensitivity& s = r->sensitivity;
  std::string out = StrPrintf("whyplan fp=%s%s%s\n",
                              FingerprintHex(r->fingerprint).c_str(),
                              r->tag.empty() ? "" : " tag=", r->tag.c_str());
  out += WinnerLine(*r);
  if (!s.available) {
    out += "  sensitivity: " + s.verdict + "\n";
  } else {
    out += "  grid:       ";
    for (double q : s.grid) out += StrPrintf(" %12s", QuantileLabel(q).c_str());
    out += "\n  selectivity:";
    for (double sel : s.selectivity) out += StrPrintf(" %12.6g", sel);
    out += "\n";
    for (size_t c = 0; c < s.candidates.size(); ++c) {
      const CandidateCurve& cand = s.candidates[c];
      out += StrPrintf("  %-12s",
                       c == 0 ? "[winner]" : StrPrintf("[#%zu]", c + 1).c_str());
      for (double cost : cand.cost_at) out += StrPrintf(" %12.6g", cost);
      out += StrPrintf("  %s%s\n", cand.label.c_str(),
                       cand.curve_available ? "" : " (flat: no curve)");
    }
    out += "  verdict: " + s.verdict + "\n";
  }
  bool any_diff = false;
  for (const PlanDiffRecord& d : diffs_) {
    if (d.fingerprint != fingerprint) continue;
    if (!any_diff) {
      out += "  diffs:\n";
      any_diff = true;
    }
    out += StrPrintf(
        "    [%s] epoch %llu->%llu plan %s -> %s cost %.6g -> %.6g "
        "(delta %+.6g) changed=%s\n",
        d.trigger.c_str(), static_cast<unsigned long long>(d.old_epoch),
        static_cast<unsigned long long>(d.new_epoch), d.old_label.c_str(),
        d.new_label.c_str(), d.old_cost, d.new_cost, d.new_cost - d.old_cost,
        d.plan_changed ? "yes" : "no");
    const size_t points = std::min(d.old_curve.size(), d.new_curve.size());
    if (points > 0 && points == d.grid.size()) {
      out += "      curve delta:";
      for (size_t i = 0; i < points; ++i) {
        out += StrPrintf(" %s=%+.6g", QuantileLabel(d.grid[i]).c_str(),
                         d.new_curve[i] - d.old_curve[i]);
      }
      out += "\n";
    }
    if (!d.new_verdict.empty()) {
      out += "      now: " + d.new_verdict + "\n";
    }
  }
  return out;
}

std::string PlanProvenanceStore::ToJson() const {
  std::string out = StrPrintf(
      "{\"plan_provenance\":{\"capacity\":%zu,\"diff_capacity\":%zu,"
      "\"stats\":{\"recorded\":%llu,\"evicted\":%llu,\"diffs\":%llu,"
      "\"diffs_evicted\":%llu,\"absorbed\":%llu,\"fragile\":%llu,"
      "\"stable\":%llu},\"records\":[",
      config_.capacity, config_.diff_capacity,
      static_cast<unsigned long long>(stats_.recorded),
      static_cast<unsigned long long>(stats_.evicted),
      static_cast<unsigned long long>(stats_.diffs),
      static_cast<unsigned long long>(stats_.diffs_evicted),
      static_cast<unsigned long long>(stats_.absorbed),
      static_cast<unsigned long long>(stats_.fragile),
      static_cast<unsigned long long>(stats_.stable));
  bool first = true;
  for (const PlanProvenanceRecord* r : Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += StrPrintf(
        "{\"fingerprint\":\"%s\",\"threshold_bits\":\"%016llx\","
        "\"estimator\":\"%s\",\"epoch\":%llu,\"sequence\":%llu,"
        "\"plan\":\"%s\",\"cost\":%s,\"rows\":%s,\"tag\":\"%s\","
        "\"sensitivity\":",
        FingerprintHex(r->fingerprint).c_str(),
        static_cast<unsigned long long>(r->threshold_bits),
        JsonEscape(r->estimator).c_str(),
        static_cast<unsigned long long>(r->epoch),
        static_cast<unsigned long long>(r->sequence),
        JsonEscape(r->plan_label).c_str(), Num(r->estimated_cost).c_str(),
        Num(r->estimated_rows).c_str(), JsonEscape(r->tag).c_str());
    out += SensitivityJson(r->sensitivity);
    out += "}";
  }
  out += "],\"diffs\":[";
  first = true;
  for (const PlanDiffRecord* d : Diffs()) {
    if (!first) out += ",";
    first = false;
    out += StrPrintf(
        "{\"fingerprint\":\"%s\",\"trigger\":\"%s\",\"sequence\":%llu,"
        "\"old_epoch\":%llu,\"new_epoch\":%llu,\"old_plan\":\"%s\","
        "\"new_plan\":\"%s\",\"old_cost\":%s,\"new_cost\":%s,"
        "\"plan_changed\":%s,\"old_verdict\":\"%s\",\"new_verdict\":\"%s\","
        "\"tag\":\"%s\",\"grid\":",
        FingerprintHex(d->fingerprint).c_str(), JsonEscape(d->trigger).c_str(),
        static_cast<unsigned long long>(d->sequence),
        static_cast<unsigned long long>(d->old_epoch),
        static_cast<unsigned long long>(d->new_epoch),
        JsonEscape(d->old_label).c_str(), JsonEscape(d->new_label).c_str(),
        Num(d->old_cost).c_str(), Num(d->new_cost).c_str(),
        d->plan_changed ? "true" : "false",
        JsonEscape(d->old_verdict).c_str(),
        JsonEscape(d->new_verdict).c_str(), JsonEscape(d->tag).c_str());
    out += DoubleArrayJson(d->grid);
    out += ",\"old_curve\":" + DoubleArrayJson(d->old_curve);
    out += ",\"new_curve\":" + DoubleArrayJson(d->new_curve);
    out += "}";
  }
  out += "]}}";
  return out;
}

std::string PlanProvenanceStore::ToChromeTrace() const {
  std::vector<CounterTrack> tracks;
  uint64_t tid = 1;
  for (const PlanProvenanceRecord* r : Snapshot()) {
    const PlanSensitivity& s = r->sensitivity;
    if (!s.available) continue;
    CounterTrack track;
    track.pid = 1;
    track.tid = tid++;
    track.process_name = "plan provenance";
    track.name = StrPrintf("plancost %s T=%.4g",
                           FingerprintHex(r->fingerprint).c_str(),
                           s.threshold);
    const size_t points = s.grid.size();
    for (size_t i = 0; i < points; ++i) {
      CounterSample sample;
      sample.ts = static_cast<uint64_t>(
          std::llround(std::max(0.0, s.grid[i]) * 100.0));
      for (const CandidateCurve& cand : s.candidates) {
        if (i < cand.cost_at.size()) {
          sample.values.push_back({cand.label, cand.cost_at[i]});
        }
      }
      if (!sample.values.empty()) track.samples.push_back(std::move(sample));
    }
    if (!track.samples.empty()) tracks.push_back(std::move(track));
  }
  return obs::ToChromeTrace({}, tracks);
}

void PlanProvenanceStore::PublishMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr || !config_.enabled) return;
  const auto sync = [metrics](const char* name, uint64_t value) {
    Counter* counter = metrics->GetCounter(name);
    counter->Increment(value - counter->value());
  };
  sync("optimizer.provenance.recorded", stats_.recorded);
  sync("optimizer.provenance.evicted", stats_.evicted);
  sync("optimizer.provenance.diffs", stats_.diffs);
  sync("optimizer.provenance.diffs_evicted", stats_.diffs_evicted);
  sync("optimizer.provenance.absorbed", stats_.absorbed);
  sync("optimizer.sensitivity.fragile_plans", stats_.fragile);
  sync("optimizer.sensitivity.stable_plans", stats_.stable);
  metrics->GetGauge("optimizer.provenance.records")
      ->Set(static_cast<double>(records_.size()));
  metrics->GetGauge("optimizer.sensitivity.crossover_quantile")
      ->Set(last_crossover_);
}

void PlanProvenanceStore::Clear() {
  records_.clear();
  diffs_.clear();
  stats_ = PlanProvenanceStats{};
  next_sequence_ = 0;
  last_crossover_ = -1.0;
}

}  // namespace obs
}  // namespace robustqo
