// The batched sampling engine vs the scalar uncached path it replaced.
// The workload models one optimizer run: P distinct conjuncts, each
// re-costed R times (the DP join enumerator re-costs a conjunct under many
// join-subset/context combinations).
//
//   baseline  per probe: expr::CountSatisfying (per-row tree interpretation
//             with boxed Values) + a fresh inverse-Beta Newton iteration.
//   engine    per probe: stats::RobustSampleEstimator::EstimateRows with a
//             per-run probe-count memo, on statistics without join
//             synopses, so every estimate takes the per-table sample tier:
//             memo lookup -> columnar batch scan on a miss -> inverse-Beta
//             LRU for the quantile.
//
// The two paths must produce bit-identical row estimates (q-error delta
// exactly 0); the bench verifies that before timing and exits non-zero on
// any mismatch or if the engine speedup falls under the contracted 4x.
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
#include "perf/caches.h"
#include "statistics/robust_sample_estimator.h"
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
  stats::CardinalityRequest request;
  double table_rows;
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
    const double table_rows = static_cast<double>(
        statistics->catalog().GetTable(spec.table)->num_rows());
    probes.push_back(
        {&sample->rows(), {{spec.table}, spec.predicate}, table_rows});
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
      const uint64_t k = expr::CountSatisfying(*probe.request.predicate,
                                               *probe.sample_rows);
      stats::SelectivityPosterior posterior(k, probe.sample_rows->num_rows());
      estimates.push_back(posterior.EstimateAtConfidence(kThreshold) *
                          probe.table_rows);
    }
  }
  return estimates;
}

// Engine: the estimator, fresh per run like one Optimize() call — a new
// probe-count memo and a cold inverse-Beta LRU.
std::vector<double> RunEngine(const stats::StatisticsCatalog* statistics,
                              const std::vector<Probe>& probes) {
  stats::RobustEstimatorConfig config;
  config.confidence_threshold = kThreshold;
  stats::RobustSampleEstimator estimator(statistics, config);
  perf::ProbeCountCache probe_cache;
  stats::EstimationContext context;
  context.probe_cache = &probe_cache;
  std::vector<double> estimates;
  estimates.reserve(probes.size() * kRepeats);
  for (int r = 0; r < kRepeats; ++r) {
    for (const Probe& probe : probes) {
      Result<double> rows = estimator.EstimateRows(probe.request, context);
      if (!rows.ok()) std::abort();
      estimates.push_back(rows.value());
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
  // Without join synopses every estimate takes the per-table sample tier.
  for (const std::string& table : db.catalog()->TableNames()) {
    db.statistics()->DropSynopsis(table);
  }

  const std::vector<Probe> probes = MakeWorkload(db.statistics());
  std::printf("sampling engine: %zu conjuncts x %d re-costings, "
              "%llu-row samples\n",
              probes.size(), kRepeats,
              static_cast<unsigned long long>(probes[0].sample_rows->num_rows()));

  // Correctness first: engine estimates must equal the scalar uncached
  // path bit for bit (q-error delta exactly 0).
  const std::vector<double> reference = RunBaseline(probes);
  const std::vector<double> engine = RunEngine(db.statistics(), probes);
  if (engine.size() != reference.size()) return 3;
  for (size_t i = 0; i < engine.size(); ++i) {
    if (engine[i] != reference[i]) {
      std::printf("FAIL: estimate %zu differs: %.17g vs %.17g\n", i,
                  engine[i], reference[i]);
      return 3;
    }
  }
  std::printf("estimates: engine == baseline bitwise (q-error delta 0)\n\n");

  const double baseline_s =
      BestRoundSeconds([&] { (void)RunBaseline(probes); });
  const double engine_s =
      BestRoundSeconds([&] { (void)RunEngine(db.statistics(), probes); });
  const double speedup = baseline_s / engine_s;
  std::printf("scalar uncached baseline:  %9.4f ms\n", baseline_s * 1e3);
  std::printf("engine (estimator):        %9.4f ms  (%.1fx vs baseline, "
              "contract: >= 4x)\n",
              engine_s * 1e3, speedup);

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
    w.Field("engine_seconds", engine_s);
    w.Field("speedup", speedup);
    w.Field("estimates_bit_identical", true);
    w.EndObject();
    if (!bench::WriteJsonFile(json_path, w.str())) return 2;
  }

  if (speedup < 4.0) {
    std::printf("FAIL: engine speedup %.1fx < 4x\n", speedup);
    return 1;
  }
  std::printf("PASS: engine >= 4x over the scalar uncached path\n");
  return 0;
}
