// The server's PREPARE/EXECUTE plan cache vs the cold per-statement path.
// The workload is a small TPC-H-style statement mix executed repeatedly,
// the shape a plan cache exists for:
//
//   cold    per EXECUTE: parse + full optimization (join enumeration with
//           robust sample-based estimation) + execution;
//   cached  per EXECUTE: fingerprint lookup in the warmed plan cache +
//           execution of the cached operator tree.
//
// Both paths must return identical answers — the bench verifies row counts
// and aggregate bytes before timing and exits non-zero on any mismatch or
// if the cached path's speedup falls under the contracted 3x. Planning is
// the dominant cost for these statements (sampling probes + DP join
// enumeration), which is exactly the work a cache hit elides.
//
// Usage: overhead_plan_cache [--json out.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/database.h"
#include "server/query_service.h"
#include "tpch/tpch_gen.h"
#include "util/stopwatch.h"

using namespace robustqo;

namespace {

constexpr int kRepeats = 12;  // EXECUTEs of each statement per pass
constexpr int kRounds = 5;    // best-of timing rounds

const char* kStatements[] = {
    // Selective shapes: index-range scans and filtered star joins, where
    // optimization (sampling probes + DP join enumeration) costs a
    // multiple of execution -- the serving workload a plan cache earns
    // its keep on.
    "SELECT COUNT(*) AS n FROM region, nation, customer, orders, lineitem "
    "WHERE r_regionkey = 2 "
    "AND o_orderdate BETWEEN DATE '1994-01-01' AND DATE '1994-01-05'",
    "SELECT SUM(l_extendedprice) AS revenue FROM lineitem "
    "WHERE l_shipdate BETWEEN DATE '1994-03-01' AND DATE '1994-03-03' "
    "AND l_discount BETWEEN 0.05 AND 0.07",
    "SELECT COUNT(*) AS n FROM region, nation, customer, orders, lineitem "
    "WHERE r_regionkey = 0 "
    "AND o_orderdate BETWEEN DATE '1995-06-01' AND DATE '1995-06-05'",
    "SELECT SUM(l_extendedprice) AS promo FROM lineitem, part "
    "WHERE p_size BETWEEN 1 AND 3 "
    "AND l_shipdate BETWEEN DATE '1995-09-01' AND DATE '1995-09-02'",
};

struct Answer {
  uint64_t rows = 0;
  uint64_t spj_rows = 0;
};

// Cold path: every EXECUTE pays parse + optimization + execution.
std::vector<Answer> RunCold(core::Database* db) {
  std::vector<Answer> answers;
  for (int r = 0; r < kRepeats; ++r) {
    for (const char* sql : kStatements) {
      auto result = db->ExecuteSql(sql);
      if (!result.ok()) std::abort();
      answers.push_back(
          {result.value().rows.num_rows(), result.value().spj_rows});
    }
  }
  return answers;
}

// The prepared-statement name of kStatements[s].
std::string StatementName(size_t s) {
  return std::string("q").append(std::to_string(s));
}

// Cached path: prepared statements through the service; after the first
// pass every plan comes from the cache.
std::vector<Answer> RunCached(server::QueryService* service,
                              server::SessionId session) {
  std::vector<Answer> answers;
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t s = 0; s < std::size(kStatements); ++s) {
      server::QueryResponse response =
          service->ExecutePrepared(session, StatementName(s));
      if (!response.status.ok()) std::abort();
      answers.push_back(
          {response.result->rows.num_rows(), response.result->spj_rows});
    }
  }
  return answers;
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
  config.scale_factor = 0.002;
  if (!tpch::LoadTpch(db.catalog(), config).ok()) return 2;
  stats::StatisticsConfig stats_config;
  stats_config.sample_size = 4000;
  db.UpdateStatistics(stats_config);

  server::QueryService service(&db);
  server::SessionId session = service.OpenSession();
  for (size_t s = 0; s < std::size(kStatements); ++s) {
    if (!service.Prepare(session, StatementName(s), kStatements[s]).ok()) {
      return 2;
    }
  }

  std::printf("plan cache: %zu statements x %d EXECUTEs per pass\n",
              std::size(kStatements), kRepeats);

  // Correctness first: the cached path must return the same answers as the
  // cold path on every EXECUTE.
  const std::vector<Answer> reference = RunCold(&db);
  const std::vector<Answer> cached = RunCached(&service, session);
  if (cached.size() != reference.size()) return 3;
  for (size_t i = 0; i < cached.size(); ++i) {
    if (cached[i].rows != reference[i].rows ||
        cached[i].spj_rows != reference[i].spj_rows) {
      std::printf("FAIL: answer %zu differs: rows %llu vs %llu\n", i,
                  static_cast<unsigned long long>(cached[i].rows),
                  static_cast<unsigned long long>(reference[i].rows));
      return 3;
    }
  }
  const auto& cache_stats = service.plan_cache()->stats();
  std::printf("answers: cached == cold on all %zu EXECUTEs "
              "(cache: %llu hits / %llu misses)\n\n",
              cached.size(),
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses));

  const double cold_s = BestRoundSeconds([&] { (void)RunCold(&db); });
  std::printf("cold parse+plan+execute:   %9.4f ms per pass\n", cold_s * 1e3);
  const double cached_s =
      BestRoundSeconds([&] { (void)RunCached(&service, session); });
  std::printf("cached EXECUTE:            %9.4f ms per pass\n",
              cached_s * 1e3);

  const double speedup = cold_s / cached_s;
  std::printf("\ncached EXECUTE speedup: %.1fx (contract: >= 3x)\n", speedup);

  if (!json_path.empty()) {
    bench::JsonWriter w;
    w.BeginObject();
    w.Field("bench", "overhead_plan_cache");
    w.Field("scale_factor", config.scale_factor);
    w.Field("sample_size", static_cast<uint64_t>(stats_config.sample_size));
    w.Field("statements", static_cast<uint64_t>(std::size(kStatements)));
    w.Field("repeats", static_cast<uint64_t>(kRepeats));
    w.Field("cold_seconds", cold_s);
    w.Field("cached_seconds", cached_s);
    w.Field("speedup", speedup);
    w.Field("cache_hits", cache_stats.hits);
    w.Field("cache_misses", cache_stats.misses);
    w.Field("answers_identical", true);
    w.EndObject();
    if (!bench::WriteJsonFile(json_path, w.str())) return 2;
  }

  if (speedup < 3.0) {
    std::printf("FAIL: cached speedup %.1fx < 3x\n", speedup);
    return 1;
  }
  std::printf("PASS: cached EXECUTE >= 3x over the cold path\n");
  return 0;
}
