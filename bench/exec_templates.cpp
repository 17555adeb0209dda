// Per-template executor cost: Database::ExecutePlan on each of the eight
// TPC-H-lite read templates (tpch::kReadTemplates) at sf 0.01, planned
// once with the robust estimator and executed round-robin. For each
// template it reports the median wall time of one execution and the minor
// page faults one execution takes (getrusage(RUSAGE_THREAD) around the
// call), after a few warm-up rounds. A run that reuses warm memory takes
// about 0 faults; one that gets fresh pages from the allocator pays a fault
// per page it touches. The bench only reports; it has no gate.
//
// Usage: exec_templates [--rounds N] [--json out.json]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/database.h"
#include "tpch/tpch_gen.h"

using namespace robustqo;

namespace {

constexpr int kWarmupRounds = 5;
constexpr int kDefaultRounds = 300;

uint64_t MinorFaults() {
  struct rusage usage;
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Figures {
  std::vector<double> micros;
  uint64_t faults = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ConsumeJsonFlag(&argc, argv);
  int rounds = kDefaultRounds;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::max(1, std::atoi(argv[++i]));
    }
  }

  constexpr double kScale = 0.01;
  core::Database db;
  tpch::TpchConfig config;
  config.scale_factor = kScale;
  if (!tpch::LoadTpch(db.catalog(), config).ok()) return 2;
  db.UpdateStatistics();

  std::vector<opt::PlannedQuery> plans;
  for (const tpch::ReadTemplate& t : tpch::kReadTemplates) {
    Result<opt::QuerySpec> spec = db.ParseSql(t.sql);
    Result<opt::PlannedQuery> plan =
        spec.ok() ? db.Plan(spec.value(), core::EstimatorKind::kRobustSample)
                  : Result<opt::PlannedQuery>(spec.status());
    if (!plan.ok()) {
      std::fprintf(stderr, "%s: %s\n", t.name, plan.status().ToString().c_str());
      return 2;
    }
    plans.push_back(std::move(plan).value());
  }

  std::vector<Figures> figures(plans.size());
  for (int round = -kWarmupRounds; round < rounds; ++round) {
    for (size_t t = 0; t < plans.size(); ++t) {
      const uint64_t faults_before = MinorFaults();
      const auto start = std::chrono::steady_clock::now();
      if (!db.ExecutePlan(plans[t]).ok()) return 2;
      const auto end = std::chrono::steady_clock::now();
      const uint64_t faults = MinorFaults() - faults_before;
      if (round < 0) continue;
      figures[t].micros.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
      figures[t].faults += faults;
    }
  }

  std::printf("exec_templates: Database::ExecutePlan per TPC-H-lite template "
              "(sf %.2f, %d round-robin rounds after %d warm-up)\n",
              kScale, rounds, kWarmupRounds);
  std::printf("%-8s %12s %16s  %s\n", "template", "median_us", "faults_per_run",
              "plan");
  double sum_medians = 0.0;
  bench::JsonWriter w;
  w.BeginObject();
  w.Field("bench", "exec_templates");
  w.Field("scale_factor", kScale);
  w.Field("rounds", rounds);
  w.Key("templates");
  w.BeginArray();
  for (size_t t = 0; t < plans.size(); ++t) {
    const double median = Median(figures[t].micros);
    const double faults_per_run =
        static_cast<double>(figures[t].faults) / rounds;
    sum_medians += median;
    std::printf("%-8s %12.1f %16.1f  %s\n", tpch::kReadTemplates[t].name,
                median, faults_per_run, plans[t].label.c_str());
    w.BeginObject();
    w.Field("name", tpch::kReadTemplates[t].name);
    w.Field("plan", plans[t].label);
    w.Field("median_us", median);
    w.Field("faults_per_run", faults_per_run);
    w.EndObject();
  }
  w.EndArray();
  w.Field("sum_median_us", sum_medians);
  w.EndObject();
  std::printf("sum of medians: %.1f us\n", sum_medians);
  if (!json_path.empty() && !bench::WriteJsonFile(json_path, w.str())) {
    return 2;
  }
  return 0;
}
