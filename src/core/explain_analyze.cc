#include "core/explain_analyze.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "core/report.h"
#include "util/string_util.h"

namespace robustqo {
namespace core {

namespace {

const std::string* FindAttr(const obs::TraceAttrs& attrs,
                            const std::string& key) {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

double AttrDouble(const obs::TraceAttrs& attrs, const std::string& key,
                  double fallback) {
  const std::string* v = FindAttr(attrs, key);
  return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
}

uint64_t AttrUint(const obs::TraceAttrs& attrs, const std::string& key,
                  uint64_t fallback) {
  const std::string* v = FindAttr(attrs, key);
  return v == nullptr ? fallback : std::strtoull(v->c_str(), nullptr, 10);
}

std::string AttrString(const obs::TraceAttrs& attrs, const std::string& key) {
  const std::string* v = FindAttr(attrs, key);
  return v == nullptr ? std::string() : *v;
}

/// One executed operator: begin-order position plus its end-record results.
struct ExecSpan {
  std::string name;
  uint64_t rows_out = 0;
  double cost_seconds = 0.0;
};

std::vector<ExecSpan> CollectExecSpans(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<ExecSpan> spans;
  std::map<uint64_t, size_t> position;  // span id -> index in `spans`
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceKind::kSpanBegin) {
      if (e.category != "exec") continue;
      position[e.span_id] = spans.size();
      spans.push_back({e.name, 0, 0.0});
    } else if (e.kind == obs::TraceKind::kSpanEnd) {
      // End records carry no category; match them to begins by span id.
      auto it = position.find(e.span_id);
      if (it == position.end()) continue;
      spans[it->second].rows_out = AttrUint(e.attrs, "rows_out", 0);
      spans[it->second].cost_seconds = AttrDouble(e.attrs, "cost_seconds", 0.0);
    }
  }
  return spans;
}

// Pre-order walk zipping plan nodes against `spans`; `next` advances only
// on a name match, so one mismatch fails soft (that subtree reports
// executed=false) instead of mislabeling later operators.
void Annotate(const exec::PhysicalOperator& op, int depth,
              const std::vector<ExecSpan>& spans, size_t* next,
              std::vector<OperatorReport>* out) {
  OperatorReport report;
  report.depth = depth;
  report.describe = op.Describe();
  report.estimated_rows = op.planner_estimated_rows();
  if (*next < spans.size() && spans[*next].name == report.describe) {
    const ExecSpan& span = spans[(*next)++];
    report.executed = true;
    report.actual_rows = span.rows_out;
    report.subtree_cost_seconds = span.cost_seconds;
    if (report.estimated_rows >= 0.0) {
      report.q_error = QError(report.estimated_rows,
                              static_cast<double>(span.rows_out));
    }
  }
  const size_t my_index = out->size();
  out->push_back(std::move(report));
  double children_cost = 0.0;
  for (const exec::PhysicalOperator* child : op.children()) {
    const size_t child_index = out->size();
    Annotate(*child, depth + 1, spans, next, out);
    children_cost += (*out)[child_index].subtree_cost_seconds;
  }
  (*out)[my_index].self_cost_seconds =
      std::max(0.0, (*out)[my_index].subtree_cost_seconds - children_cost);
}

std::string EscapeDotLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string JsonNumber(double value) { return StrPrintf("%.9g", value); }

}  // namespace

std::vector<OperatorReport> AnnotatePlan(
    const exec::PhysicalOperator& root,
    const std::vector<obs::TraceEvent>& events) {
  const std::vector<ExecSpan> spans = CollectExecSpans(events);
  std::vector<OperatorReport> out;
  size_t next = 0;
  Annotate(root, 0, spans, &next, &out);
  return out;
}

std::vector<PredicateReport> CollectPredicateReports(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<PredicateReport> out;
  std::map<std::string, bool> seen;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceKind::kEvent || e.category != "estimator" ||
        e.name == "degraded") {  // tier fallbacks render separately
      continue;
    }
    PredicateReport report;
    report.tables = AttrString(e.attrs, "tables");
    report.predicate = AttrString(e.attrs, "predicate");
    report.source = AttrString(e.attrs, "source");
    const std::string key =
        report.tables + "|" + report.predicate + "|" + report.source;
    if (seen[key]) continue;
    seen[key] = true;
    report.fingerprint = AttrUint(e.attrs, "fingerprint", 0);
    report.has_sample = FindAttr(e.attrs, "n") != nullptr;
    report.sample_k = AttrUint(e.attrs, "k", 0);
    report.sample_n = AttrUint(e.attrs, "n", 0);
    report.posterior_alpha = AttrDouble(e.attrs, "posterior_alpha", 0.0);
    report.posterior_beta = AttrDouble(e.attrs, "posterior_beta", 0.0);
    report.confidence_threshold = AttrDouble(e.attrs, "threshold", 0.0);
    report.selectivity = AttrDouble(e.attrs, "selectivity", -1.0);
    report.estimated_rows = AttrDouble(e.attrs, "est_rows", -1.0);
    out.push_back(std::move(report));
  }
  return out;
}

std::vector<DegradationReport> CollectDegradations(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<DegradationReport> out;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceKind::kEvent || e.category != "estimator" ||
        e.name != "degraded") {
      continue;
    }
    DegradationReport report;
    report.tier_from = AttrString(e.attrs, "tier_from");
    report.tier_to = AttrString(e.attrs, "tier_to");
    report.reason = AttrString(e.attrs, "reason");
    report.tables = AttrString(e.attrs, "tables");
    out.push_back(std::move(report));
  }
  return out;
}

std::string AnalyzedPlan::ToText() const {
  std::string out = "EXPLAIN ANALYZE\n";
  out += StrPrintf("plan:      %s\n", plan_label.c_str());
  out += StrPrintf("estimator: %s\n", estimator_name.c_str());
  if (!execution_error.empty()) {
    out += StrPrintf("error:     %s\n", execution_error.c_str());
  }
  out += StrPrintf("cost:      estimated %.4f s, actual %.4f s\n",
                   estimated_cost, actual_cost_seconds);
  out += StrPrintf(
      "SPJ rows:  estimated %.1f, actual %llu   (q-error %.2f)\n",
      estimated_spj_rows, static_cast<unsigned long long>(actual_spj_rows),
      spj_q_error);
  if (peak_memory_bytes > 0 || rows_charged > 0) {
    out += StrPrintf(
        "governor:  peak memory %llu bytes, %llu rows charged\n",
        static_cast<unsigned long long>(peak_memory_bytes),
        static_cast<unsigned long long>(rows_charged));
  }
  out += StrPrintf(
      "optimizer: %zu candidates costed, %zu estimates (%zu uncached)\n",
      optimizer_metrics.candidates, optimizer_metrics.estimator_calls,
      optimizer_metrics.estimator_misses);
  {
    const size_t cache_hits = optimizer_metrics.probe_cache_hits +
                              optimizer_metrics.beta_cache_hits;
    const size_t cache_misses = optimizer_metrics.probe_cache_misses +
                                optimizer_metrics.beta_cache_misses;
    if (cache_hits + cache_misses > 0) {
      out += StrPrintf(
          "perf:      cache %zu hits / %zu misses "
          "(probe %zu/%zu, inverse-beta %zu/%zu)\n",
          cache_hits, cache_misses, optimizer_metrics.probe_cache_hits,
          optimizer_metrics.probe_cache_misses,
          optimizer_metrics.beta_cache_hits,
          optimizer_metrics.beta_cache_misses);
    }
  }
  out += "operators:\n";
  out += StrPrintf("  %12s %12s %8s %13s  %s\n", "est rows", "actual rows",
                   "q-err", "self cost(s)", "operator");
  for (const OperatorReport& op : operators) {
    const std::string name = std::string(2 * op.depth, ' ') + op.describe;
    const std::string est = op.estimated_rows >= 0.0
                                ? StrPrintf("%.1f", op.estimated_rows)
                                : "-";
    const std::string act =
        op.executed
            ? StrPrintf("%llu", static_cast<unsigned long long>(op.actual_rows))
            : "-";
    const std::string q = op.executed && op.estimated_rows >= 0.0
                              ? StrPrintf("%.2f", op.q_error)
                              : "-";
    const std::string self =
        op.executed ? StrPrintf("%.6f", op.self_cost_seconds) : "-";
    out += StrPrintf("  %12s %12s %8s %13s  %s\n", est.c_str(), act.c_str(),
                     q.c_str(), self.c_str(), name.c_str());
  }
  if (!instrumented) {
    out +=
        "  (no execution trace: observability disabled in this build or no "
        "spans recorded)\n";
  }
  if (!predicates.empty()) {
    out += "predicate estimates:\n";
    for (const PredicateReport& p : predicates) {
      out += StrPrintf("  [%s] {%s}", p.source.c_str(), p.tables.c_str());
      if (p.has_sample) {
        out += StrPrintf(
            " k=%llu/n=%llu Beta(%.2f,%.2f)",
            static_cast<unsigned long long>(p.sample_k),
            static_cast<unsigned long long>(p.sample_n), p.posterior_alpha,
            p.posterior_beta);
      }
      if (p.confidence_threshold > 0.0) {
        out += StrPrintf(" T=%.0f%%", p.confidence_threshold * 100.0);
      }
      if (p.selectivity >= 0.0) out += StrPrintf(" sel=%.4g", p.selectivity);
      if (p.estimated_rows >= 0.0) {
        out += StrPrintf(" est_rows=%.4g", p.estimated_rows);
      }
      if (!p.predicate.empty()) out += " :: " + p.predicate;
      out += "\n";
    }
  }
  if (!degradations.empty()) {
    out += "estimator degradations:\n";
    for (const DegradationReport& d : degradations) {
      out += StrPrintf("  %s -> %s (%s) {%s}\n", d.tier_from.c_str(),
                       d.tier_to.c_str(), d.reason.c_str(), d.tables.c_str());
    }
  }
  if (sensitivity.captured) {
    out += "sensitivity:\n";
    if (!sensitivity.available) {
      out += StrPrintf("  unavailable: %s\n",
                       sensitivity.unavailable_reason.c_str());
    } else {
      out += StrPrintf("  T=%.4g  quantile:", sensitivity.threshold);
      for (double q : sensitivity.grid) {
        out += StrPrintf(" %12s", obs::QuantileLabel(q).c_str());
      }
      out += "\n  posterior selectivity:";
      for (double s : sensitivity.selectivity) {
        out += StrPrintf(" %12.6g", s);
      }
      out += "\n";
      for (size_t i = 0; i < sensitivity.candidates.size(); ++i) {
        const obs::CandidateCurve& c = sensitivity.candidates[i];
        out += StrPrintf(
            "  %-22s", i == 0 ? "[winner]"
                              : StrPrintf("[#%zu]", i + 1).c_str());
        for (double v : c.cost_at) out += StrPrintf(" %12.6g", v);
        out += StrPrintf("  %s%s\n", c.label.c_str(),
                         c.curve_available ? "" : " (flat: no curve)");
      }
    }
    out += StrPrintf("  verdict: %s\n", sensitivity.verdict.c_str());
  }
  return out;
}

std::string AnalyzedPlan::ToDot(const std::string& graph_name) const {
  std::string out = "digraph " + graph_name + " {\n";
  out += "  rankdir=BT;\n";
  // Pre-order + depth reconstructs the tree: a node's parent is the most
  // recent node one level shallower.
  std::vector<size_t> last_at_depth;
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorReport& op = operators[i];
    std::string label = EscapeDotLabel(op.describe);
    if (op.estimated_rows >= 0.0) {
      label += StrPrintf("\\nest %.1f", op.estimated_rows);
    }
    if (op.executed) {
      label += StrPrintf("\\nactual %llu",
                         static_cast<unsigned long long>(op.actual_rows));
      if (op.estimated_rows >= 0.0) {
        label += StrPrintf(" (q %.2f)", op.q_error);
      }
      label += StrPrintf("\\ncost %.6f s", op.subtree_cost_seconds);
    }
    out += StrPrintf("  n%zu [shape=box, label=\"%s\"];\n", i, label.c_str());
    if (op.depth > 0 &&
        static_cast<size_t>(op.depth) <= last_at_depth.size()) {
      out += StrPrintf("  n%zu -> n%zu;\n", i, last_at_depth[op.depth - 1]);
    }
    if (last_at_depth.size() <= static_cast<size_t>(op.depth)) {
      last_at_depth.resize(op.depth + 1, 0);
    }
    last_at_depth[op.depth] = i;
  }
  if (sensitivity.captured && !sensitivity.verdict.empty()) {
    out += StrPrintf("  sensitivity [shape=note, label=\"%s\"];\n",
                     EscapeDotLabel(sensitivity.verdict).c_str());
  }
  out += "}\n";
  return out;
}

std::string AnalyzedPlan::ToJson() const {
  std::string out = "{";
  out += "\"plan\":\"" + JsonEscape(plan_label) + "\"";
  out += ",\"estimator\":\"" + JsonEscape(estimator_name) + "\"";
  out += ",\"estimated_cost\":" + JsonNumber(estimated_cost);
  out += ",\"actual_cost_seconds\":" + JsonNumber(actual_cost_seconds);
  out += ",\"estimated_rows\":" + JsonNumber(estimated_rows);
  out += ",\"actual_rows\":" +
         StrPrintf("%llu", static_cast<unsigned long long>(actual_rows));
  out += ",\"estimated_spj_rows\":" + JsonNumber(estimated_spj_rows);
  out += ",\"actual_spj_rows\":" +
         StrPrintf("%llu", static_cast<unsigned long long>(actual_spj_rows));
  out += ",\"spj_q_error\":" + JsonNumber(spj_q_error);
  out += std::string(",\"instrumented\":") + (instrumented ? "true" : "false");
  out += ",\"execution_error\":\"" + JsonEscape(execution_error) + "\"";
  out += ",\"peak_memory_bytes\":" +
         StrPrintf("%llu", static_cast<unsigned long long>(peak_memory_bytes));
  out += ",\"rows_charged\":" +
         StrPrintf("%llu", static_cast<unsigned long long>(rows_charged));
  out += StrPrintf(
      ",\"optimizer\":{\"candidates\":%zu,\"estimator_calls\":%zu,"
      "\"estimator_misses\":%zu}",
      optimizer_metrics.candidates, optimizer_metrics.estimator_calls,
      optimizer_metrics.estimator_misses);
  out += StrPrintf(
      ",\"perf\":{\"perf.cache.hit\":%zu,\"perf.cache.miss\":%zu,"
      "\"probe_cache_hits\":%zu,\"probe_cache_misses\":%zu,"
      "\"beta_cache_hits\":%zu,\"beta_cache_misses\":%zu}",
      optimizer_metrics.probe_cache_hits + optimizer_metrics.beta_cache_hits,
      optimizer_metrics.probe_cache_misses +
          optimizer_metrics.beta_cache_misses,
      optimizer_metrics.probe_cache_hits,
      optimizer_metrics.probe_cache_misses,
      optimizer_metrics.beta_cache_hits, optimizer_metrics.beta_cache_misses);
  out += ",\"operators\":[";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorReport& op = operators[i];
    if (i > 0) out += ",";
    out += "{\"op\":\"" + JsonEscape(op.describe) + "\"";
    out += StrPrintf(",\"depth\":%d", op.depth);
    out += ",\"estimated_rows\":" + JsonNumber(op.estimated_rows);
    out += std::string(",\"executed\":") + (op.executed ? "true" : "false");
    if (op.executed) {
      out += ",\"actual_rows\":" +
             StrPrintf("%llu", static_cast<unsigned long long>(op.actual_rows));
      out += ",\"q_error\":" + JsonNumber(op.q_error);
      out += ",\"subtree_cost_seconds\":" + JsonNumber(op.subtree_cost_seconds);
      out += ",\"self_cost_seconds\":" + JsonNumber(op.self_cost_seconds);
    }
    out += "}";
  }
  out += "],\"predicates\":[";
  for (size_t i = 0; i < predicates.size(); ++i) {
    const PredicateReport& p = predicates[i];
    if (i > 0) out += ",";
    out += "{\"tables\":\"" + JsonEscape(p.tables) + "\"";
    out += ",\"predicate\":\"" + JsonEscape(p.predicate) + "\"";
    out += ",\"source\":\"" + JsonEscape(p.source) + "\"";
    if (p.fingerprint != 0) {
      out += StrPrintf(",\"fingerprint\":\"0x%016llx\"",
                       static_cast<unsigned long long>(p.fingerprint));
    }
    if (p.has_sample) {
      out += StrPrintf(",\"k\":%llu,\"n\":%llu",
                       static_cast<unsigned long long>(p.sample_k),
                       static_cast<unsigned long long>(p.sample_n));
      out += ",\"posterior_alpha\":" + JsonNumber(p.posterior_alpha);
      out += ",\"posterior_beta\":" + JsonNumber(p.posterior_beta);
    }
    if (p.confidence_threshold > 0.0) {
      out += ",\"threshold\":" + JsonNumber(p.confidence_threshold);
    }
    if (p.selectivity >= 0.0) {
      out += ",\"selectivity\":" + JsonNumber(p.selectivity);
    }
    if (p.estimated_rows >= 0.0) {
      out += ",\"estimated_rows\":" + JsonNumber(p.estimated_rows);
    }
    out += "}";
  }
  out += "],\"degradations\":[";
  for (size_t i = 0; i < degradations.size(); ++i) {
    const DegradationReport& d = degradations[i];
    if (i > 0) out += ",";
    out += "{\"tier_from\":\"" + JsonEscape(d.tier_from) + "\"";
    out += ",\"tier_to\":\"" + JsonEscape(d.tier_to) + "\"";
    out += ",\"reason\":\"" + JsonEscape(d.reason) + "\"";
    out += ",\"tables\":\"" + JsonEscape(d.tables) + "\"}";
  }
  out += "]";
  if (sensitivity.captured) {
    out += ",\"sensitivity\":" + obs::SensitivityJson(sensitivity);
  }
  out += "}";
  return out;
}

Result<AnalyzedPlan> ExplainAnalyze(Database* db, const opt::QuerySpec& query,
                                    EstimatorKind kind,
                                    const opt::OptimizerOptions& options,
                                    std::vector<obs::TraceEvent>* trace_out) {
  obs::Tracer tracer;
  opt::OptimizerOptions traced = options;
  traced.tracer = &tracer;
  Result<opt::PlannedQuery> plan = db->Plan(query, kind, traced);
  if (!plan.ok()) return plan.status();

  AnalyzedPlan out;
  out.predicates = CollectPredicateReports(tracer.events());
  out.degradations = CollectDegradations(tracer.events());
  out.optimizer_metrics = db->last_optimizer_metrics();
  out.sensitivity = plan.value().sensitivity;
  if (trace_out != nullptr) {
    *trace_out = tracer.events();  // planning phase; exec spans appended below
  }
  tracer.Clear();

  out.plan_label = plan.value().label;
  out.estimator_name = db->estimator(kind)->name({});
  out.estimated_cost = plan.value().estimated_cost;
  out.estimated_rows = plan.value().estimated_rows;
  out.estimated_spj_rows = plan.value().estimated_spj_rows;

  // Execution failures (governor trips, cancellation, injected faults) do
  // not abort the report: the plan, predicate evidence and whatever
  // operators completed before the failure are still worth showing.
  Result<ExecutionResult> result =
      db->ExecutePlan(plan.value(), storage::kLatestSnapshot, &tracer);
  if (result.ok()) {
    out.actual_cost_seconds = result.value().simulated_seconds;
    out.actual_rows = result.value().rows.num_rows();
    out.actual_spj_rows = result.value().spj_rows;
    out.spj_q_error = QError(out.estimated_spj_rows,
                             static_cast<double>(out.actual_spj_rows));
    out.peak_memory_bytes = result.value().peak_memory_bytes;
    out.rows_charged = result.value().rows_charged;
  } else {
    out.execution_error = result.status().ToString();
  }
  out.operators = AnnotatePlan(*plan.value().root, tracer.events());
  out.instrumented =
      !out.operators.empty() && out.operators.front().executed;
  if (trace_out != nullptr) {
    // The tracer's logical clock restarted at the Clear() between phases;
    // re-sequence the execution events after the planning events so the
    // combined trace has one strictly increasing timeline.
    uint64_t seq_offset = 0;
    if (!trace_out->empty()) seq_offset = trace_out->back().seq + 1;
    for (obs::TraceEvent event : tracer.events()) {
      event.seq += seq_offset;
      trace_out->push_back(std::move(event));
    }
  }
  return out;
}

}  // namespace core
}  // namespace robustqo
