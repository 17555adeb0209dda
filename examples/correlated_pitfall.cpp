// The correlated-predicate pitfall: why the attribute-value-independence
// (AVI) assumption is "arguably the single biggest source of significant
// query optimizer errors" (paper Section 2), and how Bayesian sampling
// sees through it.
//
// We sweep the Experiment-1 query's offset parameter and print, side by
// side: the exact selectivity, the histogram/AVI estimate (constant — it
// only sees the marginals), and the robust estimator's posterior interval.
//
//   $ ./build/examples/correlated_pitfall

#include <cstdio>

#include "core/database.h"
#include "statistics/robust_sample_estimator.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

using namespace robustqo;

int main() {
  core::Database db;
  tpch::TpchConfig data_cfg;
  data_cfg.scale_factor = 0.02;
  Status loaded = tpch::LoadTpch(db.catalog(), data_cfg);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }
  db.UpdateStatistics();
  const double rows = static_cast<double>(
      db.catalog()->GetTable("lineitem")->num_rows());

  workload::SingleTableScenario scenario;
  std::printf(
      "lineitem receipt dates trail ship dates by 1-30 days, so the two\n"
      "BETWEEN predicates below are strongly correlated. Histograms track\n"
      "each marginal perfectly and multiply them (AVI); the joint truth\n"
      "moves by two orders of magnitude while AVI never budges.\n\n");
  std::printf("%-8s %12s %16s %28s\n", "offset", "true sel%",
              "histogram/AVI%", "robust posterior [5%..95%]");
  for (double offset : {55.0, 64.0, 73.0, 82.0, 88.0, 92.0}) {
    opt::QuerySpec query = scenario.MakeQuery(offset);
    const double truth =
        scenario.TrueSelectivity(*db.catalog(), offset) * 100.0;

    stats::CardinalityRequest request{{"lineitem"},
                                      query.tables[0].predicate};
    const double avi =
        db.histogram_estimator()->EstimateRows(request, {}).value() / rows *
        100.0;
    auto posterior = db.robust_estimator()->EstimatePosterior(request, {});
    const double lo = posterior.value().EstimateAtConfidence(0.05) * 100.0;
    const double hi = posterior.value().EstimateAtConfidence(0.95) * 100.0;
    std::printf("%-8.0f %12.4f %16.4f %15.4f .. %.4f\n", offset, truth, avi,
                lo, hi);
  }

  // What the estimates do to plan choice and execution time at one
  // interesting point: truth well above the ~0.15% crossover.
  const double offset = 61;
  opt::QuerySpec query = scenario.MakeQuery(offset);
  std::printf("\nat offset %.0f (true sel %.3f%%):\n", offset,
              scenario.TrueSelectivity(*db.catalog(), offset) * 100.0);
  auto hist = db.Execute(query, core::EstimatorKind::kHistogram);
  std::printf("  histograms chose  %-50s -> %6.2f simulated s\n",
              hist.value().plan_label.c_str(),
              hist.value().simulated_seconds);
  auto robust = db.Execute(query, core::EstimatorKind::kRobustSample);
  std::printf("  robust T=80%% chose %-49s -> %6.2f simulated s\n",
              robust.value().plan_label.c_str(),
              robust.value().simulated_seconds);
  std::printf("\nAVI's 40x underestimate sends the baseline into the risky\n"
              "index-intersection plan: one random I/O per qualifying row.\n");
  return 0;
}
