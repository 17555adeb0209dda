// The parallel batched sampling engine vs the scalar uncached path it
// replaced. The workload models one optimizer run: P distinct conjuncts,
// each re-costed R times (the DP join enumerator re-costs a conjunct under
// many join-subset/context combinations).
//
//   baseline  per probe: expr::CountSatisfying (per-row tree interpretation
//             with boxed Values) + a fresh inverse-Beta Newton iteration.
//   engine    per probe: probe-count memo -> columnar batch scan on miss
//             (parallelized across predicates via perf::TaskPool) ->
//             inverse-Beta LRU for the quantile.
//
// The two paths must produce bit-identical selectivity estimates (q-error
// delta exactly 0); the bench verifies that before timing and exits
// non-zero on any mismatch or if the single-thread engine speedup falls
// under the contracted 4x. Thread scaling at 1/2/4/8 is reported
// separately — on a single-core host those numbers are honest ~1x.
//
// Usage: overhead_parallel_sampling [--json out.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/database.h"
#include "expr/expression.h"
#include "perf/batch_eval.h"
#include "perf/caches.h"
#include "perf/fingerprint.h"
#include "perf/task_pool.h"
#include "statistics/sample.h"
#include "statistics/selectivity_posterior.h"
#include "tpch/tpch_gen.h"
#include "util/stopwatch.h"

using namespace robustqo;

namespace {

constexpr double kThreshold = 0.80;
constexpr int kRepeats = 8;   // re-costings of each conjunct per workload pass
constexpr int kRounds = 5;    // best-of timing rounds

struct Probe {
  const storage::Table* sample_rows;
  std::string source;
  expr::ExprPtr predicate;
  uint64_t fingerprint;
};

std::vector<Probe> MakeWorkload(const stats::StatisticsCatalog* statistics) {
  using namespace expr;
  using storage::Value;
  struct Spec {
    const char* table;
    ExprPtr predicate;
  };
  const std::vector<Spec> specs = {
      {"lineitem", Lt(Col("l_quantity"), LitDouble(10.0))},
      {"lineitem", Between(Col("l_extendedprice"), Value::Double(1000.0),
                           Value::Double(20000.0))},
      {"lineitem", And({Ge(Col("l_discount"), LitDouble(0.02)),
                        Le(Col("l_discount"), LitDouble(0.06))})},
      {"lineitem", Gt(Col("l_shipdate"), LitDate(4000))},
      {"lineitem", And({Lt(Col("l_quantity"), LitDouble(25.0)),
                        Gt(Col("l_extendedprice"), LitDouble(5000.0))})},
      {"lineitem", Or({Lt(Col("l_linenumber"), LitInt(2)),
                       Gt(Col("l_quantity"), LitDouble(45.0))})},
      {"orders", Gt(Col("o_totalprice"), LitDouble(150000.0))},
      {"orders", Between(Col("o_orderdate"), Value::Date(1000),
                         Value::Date(3000))},
      {"orders", StringContains(Col("o_orderpriority"), "URGENT")},
      {"part", Lt(Col("p_size"), LitInt(20))},
      {"part", Gt(Col("p_retailprice"), LitDouble(1200.0))},
      {"part", And({Gt(Col("p_size"), LitInt(10)),
                    Lt(Col("p_retailprice"), LitDouble(1500.0))})},
  };
  std::vector<Probe> probes;
  for (const Spec& spec : specs) {
    const stats::TableSample* sample = statistics->GetSample(spec.table);
    if (sample == nullptr) std::abort();
    probes.push_back({&sample->rows(), std::string("sample:") + spec.table,
                      spec.predicate, perf::FingerprintExpr(*spec.predicate)});
  }
  return probes;
}

// Baseline: every probe interprets the expression tree per sample row and
// runs a fresh Newton inversion — no memo layers anywhere.
std::vector<double> RunBaseline(const std::vector<Probe>& probes) {
  std::vector<double> estimates;
  estimates.reserve(probes.size() * kRepeats);
  for (int r = 0; r < kRepeats; ++r) {
    for (const Probe& probe : probes) {
      const uint64_t k = expr::CountSatisfying(*probe.predicate,
                                               *probe.sample_rows);
      stats::SelectivityPosterior posterior(k, probe.sample_rows->num_rows());
      estimates.push_back(posterior.EstimateAtConfidence(kThreshold));
    }
  }
  return estimates;
}

// Engine: phase A consults the probe memo sequentially, phase B fans the
// missing batch scans across the task pool, phase C inverts via the LRU
// sequentially in probe order.
std::vector<double> RunEngine(const std::vector<Probe>& probes,
                              perf::TaskPool* pool) {
  perf::ProbeCountCache probe_cache;
  perf::InverseBetaCache beta_cache;
  std::vector<double> estimates;
  estimates.reserve(probes.size() * kRepeats);
  std::vector<size_t> pending;
  std::vector<uint64_t> counts(probes.size());
  for (int r = 0; r < kRepeats; ++r) {
    pending.clear();
    for (size_t i = 0; i < probes.size(); ++i) {
      auto cached = probe_cache.Lookup(probes[i].source,
                                       probes[i].fingerprint);
      if (cached.has_value()) {
        counts[i] = cached->satisfying;
      } else {
        pending.push_back(i);
      }
    }
    pool->ParallelFor(pending.size(), [&](size_t j) {
      const Probe& probe = probes[pending[j]];
      counts[pending[j]] =
          perf::BatchCountSatisfying(*probe.predicate, *probe.sample_rows);
    });
    for (size_t i : pending) {
      probe_cache.Insert(probes[i].source, probes[i].fingerprint,
                         {counts[i], probes[i].sample_rows->num_rows()});
    }
    for (size_t i = 0; i < probes.size(); ++i) {
      stats::SelectivityPosterior posterior(counts[i],
                                            probes[i].sample_rows->num_rows());
      const math::BetaDistribution& d = posterior.distribution();
      estimates.push_back(beta_cache.Value(d.alpha(), d.beta(), kThreshold));
    }
  }
  return estimates;
}

template <typename Fn>
double BestRoundSeconds(Fn&& body) {
  double best = 1e100;
  Stopwatch watch;
  for (int round = 0; round < kRounds; ++round) {
    watch.Restart();
    body();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ConsumeJsonFlag(&argc, argv);

  core::Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.05;
  if (!tpch::LoadTpch(db.catalog(), config).ok()) return 2;
  stats::StatisticsConfig stats_config;
  stats_config.sample_size = 2000;
  db.UpdateStatistics(stats_config);

  const std::vector<Probe> probes = MakeWorkload(db.statistics());
  std::printf("parallel sampling engine: %zu conjuncts x %d re-costings, "
              "%llu-row samples\n",
              probes.size(), kRepeats,
              static_cast<unsigned long long>(probes[0].sample_rows->num_rows()));

  // Correctness first: engine estimates must equal the scalar uncached
  // path bit for bit, at every thread count (q-error delta exactly 0).
  const std::vector<double> reference = RunBaseline(probes);
  double max_abs_delta = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    perf::TaskPool pool(threads);
    const std::vector<double> engine = RunEngine(probes, &pool);
    if (engine.size() != reference.size()) return 3;
    for (size_t i = 0; i < engine.size(); ++i) {
      const double delta = std::abs(engine[i] - reference[i]);
      max_abs_delta = std::max(max_abs_delta, delta);
      if (delta != 0.0) {
        std::printf("FAIL: estimate %zu differs at %u threads: %.17g vs "
                    "%.17g\n",
                    i, threads, engine[i], reference[i]);
        return 3;
      }
    }
  }
  std::printf("estimates: engine == baseline bitwise at 1/2/4/8 threads "
              "(max |delta| = %g, q-error delta 0)\n\n",
              max_abs_delta);

  const double baseline_s =
      BestRoundSeconds([&] { (void)RunBaseline(probes); });
  std::printf("scalar uncached baseline:  %9.4f ms\n", baseline_s * 1e3);

  std::vector<std::pair<unsigned, double>> engine_runs;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    perf::TaskPool pool(threads);
    const double s = BestRoundSeconds([&] { (void)RunEngine(probes, &pool); });
    engine_runs.emplace_back(threads, s);
    std::printf("engine, %u thread%s:        %9.4f ms  (%.1fx vs baseline)\n",
                threads, threads == 1 ? " " : "s", s * 1e3, baseline_s / s);
  }

  const double speedup_1t = baseline_s / engine_runs[0].second;
  std::printf("\nbatching + memoization speedup at 1 thread: %.1fx "
              "(contract: >= 4x)\n",
              speedup_1t);
  std::printf("thread scaling is workload parallelism only; on a "
              "single-core host expect ~1x across thread counts\n");

  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "overhead_parallel_sampling");
    w.Field("scale_factor", config.scale_factor);
    w.Field("sample_size", static_cast<uint64_t>(stats_config.sample_size));
    w.Field("conjuncts", static_cast<uint64_t>(probes.size()));
    w.Field("repeats", static_cast<uint64_t>(kRepeats));
    w.Field("confidence_threshold", kThreshold);
    w.Field("baseline_seconds", baseline_s);
    w.Key("engine_seconds_by_threads");
    w.BeginObject();
    for (const auto& [threads, seconds] : engine_runs) {
      w.Field(std::to_string(threads), seconds);
    }
    w.EndObject();
    w.Field("speedup_1thread", speedup_1t);
    w.Field("max_estimate_delta", max_abs_delta);
    w.Field("estimates_bit_identical", true);
    w.EndObject();
    if (!bench::WriteJsonFile(json_path, w.str())) return 2;
  }

  if (speedup_1t < 4.0) {
    std::printf("FAIL: engine speedup %.1fx < 4x\n", speedup_1t);
    return 1;
  }
  std::printf("PASS: engine >= 4x over the scalar uncached path\n");
  return 0;
}
