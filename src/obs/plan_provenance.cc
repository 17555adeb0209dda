#include "obs/plan_provenance.h"

#include <algorithm>
#include <cmath>

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

std::string WinnerLine(const PlanProvenanceRecord& record) {
  return StrPrintf(
      "  winner: %s cost=%.6g rows=%.6g epoch=%llu T=%.4g estimator=%s\n",
      record.plan_label.c_str(), record.estimated_cost, record.estimated_rows,
      static_cast<unsigned long long>(record.epoch),
      record.sensitivity.threshold, record.estimator.c_str());
}

std::string WhyplanText(const PlanProvenanceRecord& r,
                        const std::vector<const PlanDiffRecord*>& diffs) {
  const PlanSensitivity& s = r.sensitivity;
  std::string out =
      StrPrintf("whyplan fp=%s\n", FingerprintHex(r.fingerprint).c_str());
  out += WinnerLine(r);
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
      const std::string rank = c == 0 ? "[winner]" : StrPrintf("[#%zu]", c + 1);
      out += StrPrintf("  %-12s", rank.c_str());
      for (double cost : cand.cost_at) out += StrPrintf(" %12.6g", cost);
      out += StrPrintf("  %s%s\n", cand.label.c_str(),
                       cand.curve_available ? "" : " (flat: no curve)");
    }
    out += "  verdict: " + s.verdict + "\n";
  }
  if (!diffs.empty()) out += "  diffs:\n";
  for (const PlanDiffRecord* d : diffs) {
    out += StrPrintf(
        "    [%s] epoch %llu->%llu plan %s -> %s cost %.6g -> %.6g "
        "(delta %+.6g) changed=%s\n",
        d->trigger.c_str(), static_cast<unsigned long long>(d->old_epoch),
        static_cast<unsigned long long>(d->new_epoch), d->old_label.c_str(),
        d->new_label.c_str(), d->old_cost, d->new_cost,
        d->new_cost - d->old_cost, d->plan_changed ? "yes" : "no");
    const size_t points = std::min(d->old_curve.size(), d->new_curve.size());
    if (points > 0 && points == d->grid.size()) {
      out += "      curve delta:";
      for (size_t i = 0; i < points; ++i) {
        out += StrPrintf(" %s=%+.6g", QuantileLabel(d->grid[i]).c_str(),
                         d->new_curve[i] - d->old_curve[i]);
      }
      out += "\n";
    }
    if (!d->new_verdict.empty()) {
      out += "      now: " + d->new_verdict + "\n";
    }
  }
  return out;
}

}  // namespace obs
}  // namespace robustqo
