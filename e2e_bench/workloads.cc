#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <numeric>

#include "perf/task_pool.h"
#include "storage/date.h"
#include "tpch/tpch_gen.h"
#include "util/string_util.h"
#include "workload/star_schema.h"

namespace robustqo {
namespace e2e {
namespace {

constexpr double kTpchScale = 0.01;  // ~60k lineitem rows
constexpr size_t kTpchClients = 8;
constexpr double kTpchThresholds[] = {0.5, 0.8, 0.95};
/// TPC-H read templates, in rotation order (see TpchRead).
constexpr size_t kTpchSlots = 8;
constexpr size_t kExp1Slot = 6;
constexpr size_t kExp2Slot = 7;
/// Experiment 1 and 2 offsets the sessions' prepared variants use: the
/// middle of each figure's sweep, where both plans stay competitive and
/// T% matters. Client c runs variant c at its own T%. The pairing is
/// fixed, not seeded: it decides which variants run at which T%, and so
/// how many of them get the slower plan. A seeded pairing changed that
/// mix of work from seed to seed: over ten seeds in 8 s runs, the median
/// batch latency spread by 0.12 of its median against 0.035 with a fixed
/// one.
constexpr int64_t kExp1Offsets[] = {58, 61, 64, 67, 70, 73, 76, 79};
constexpr double kExp2Offsets[] = {10.0, 11.0, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5};

/// tpch_write_mix: writes per round cycle through this pattern, 8 per 5
/// rounds of 8 requests = 20% of requests.
constexpr size_t kWritesPerRound[] = {2, 2, 1, 2, 1};
/// Orders one UPDATE rewrites (a band of consecutive keys).
constexpr int64_t kUpdateBand = 300;
/// Marker line numbers of inserted lineitems (generated orders have at
/// most 7 lines), so a DELETE removes only rows the stream inserted.
constexpr int64_t kInsertedLine = 90;

constexpr uint64_t kStarDims = 6;
constexpr size_t kStarSampleSize = 2000;

std::string Date(int64_t days) {
  return "DATE '" + storage::FormatDate(days) + "'";
}

/// The per-(round, client) random stream: independent of everything the
/// service does, so the stream is a pure function of (seed, round, client).
Rng RequestRng(uint64_t seed, uint64_t round, size_t clients, size_t client) {
  return Rng(perf::TaskSeed(seed ^ 0x5eedbe4c4ULL, round * clients + client));
}

/// Seeded permutation of 0..n-1.
std::vector<size_t> Permutation(size_t n, Rng* rng) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->NextBounded(i)]);
  return p;
}

/// Literals of one one-shot TPC-H request. The k-th literal of the n-th
/// use of a template is the n-th point of a Weyl sequence
/// frac(start + n * alpha_k), whose start the seed picks: any run of uses
/// covers each literal's range evenly, so every seed asks for the same mix
/// of selectivities and only the order differs.
class Literals {
 public:
  Literals(uint64_t seed, size_t slot, uint64_t use)
      : seed_(seed), slot_(slot), use_(use) {}

  int64_t Next(int64_t lo, int64_t hi) {
    static constexpr double kAlpha[] = {0.6180339887498949, 0.4142135623730951,
                                        0.7320508075688772};
    const double start =
        static_cast<double>(perf::TaskSeed(seed_, slot_ * 8 + k_) >> 11) * 0x1.0p-53;
    const double u = start + static_cast<double>(use_) * kAlpha[k_ % 3];
    ++k_;
    return lo + static_cast<int64_t>((u - std::floor(u)) *
                                     static_cast<double>(hi - lo + 1));
  }

 private:
  uint64_t seed_;
  size_t slot_;
  uint64_t use_;
  size_t k_ = 0;
};

/// Draws the next literal in [lo, hi] when `literals` is set, else
/// returns `fixed`.
int64_t Pick(Literals* literals, int64_t lo, int64_t hi, int64_t fixed) {
  return literals == nullptr ? fixed : literals->Next(lo, hi);
}

/// The TPC-H-lite read templates: the Q1/Q3/Q5/Q6/Q14-style queries and
/// supplier rollup of tests/integration/tpch_queries_test.cc, then the
/// paper's Experiment 1 and 2 correlated predicates. With `literals` null
/// the literals are fixed (the prepared statements); otherwise they are
/// drawn per request (one-shot SQL).
std::string TpchRead(size_t slot, Literals* literals, int64_t exp1_offset,
                     double exp2_offset) {
  const int64_t d1995_03_15 = storage::DateToDays(1995, 3, 15);
  switch (slot) {
    case 0:  // Q1-style: big scan + grouped aggregation.
      return "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue, "
             "AVG(l_discount) AS avg_disc FROM lineitem WHERE l_shipdate <= " +
             Date(storage::DateToDays(1998, 8, 1) - Pick(literals, 0, 365, 0)) +
             " GROUP BY l_suppkey";
    case 1: {  // Q3-style: customer-orders-lineitem chain with date bounds.
      const int64_t pivot = d1995_03_15 + Pick(literals, -300, 300, 0);
      return StrPrintf("SELECT SUM(l_extendedprice) AS revenue FROM customer, "
                       "orders, lineitem WHERE c_acctbal >= %lld AND "
                       "o_orderdate < %s AND l_shipdate > %s",
                       static_cast<long long>(Pick(literals, -500, 2000, 0)),
                       Date(pivot).c_str(), Date(pivot).c_str());
    }
    case 2: {  // Q5-style: five-table chain down to region.
      const int year = static_cast<int>(Pick(literals, 1993, 1997, 1994));
      return StrPrintf(
          "SELECT COUNT(*) AS n FROM region, nation, customer, orders, "
          "lineitem WHERE r_regionkey = %lld AND o_orderdate BETWEEN %s AND %s",
          static_cast<long long>(Pick(literals, 0, 4, 2)),
          Date(storage::DateToDays(year, 1, 1)).c_str(),
          Date(storage::DateToDays(year, 12, 31)).c_str());
    }
    case 3: {  // Q6-style: the classic selective-scan aggregate.
      const int year = static_cast<int>(Pick(literals, 1993, 1997, 1994));
      const int64_t discount = Pick(literals, 2, 8, 6);
      return StrPrintf(
          "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE "
          "l_shipdate BETWEEN %s AND %s AND l_discount BETWEEN %.2f AND %.2f "
          "AND l_quantity < %lld",
          Date(storage::DateToDays(year, 1, 1)).c_str(),
          Date(storage::DateToDays(year, 12, 31)).c_str(),
          0.01 * static_cast<double>(discount - 1),
          0.01 * static_cast<double>(discount + 1),
          static_cast<long long>(Pick(literals, 20, 30, 24)));
    }
    case 4: {  // Q14-style: lineitem-part join with a part filter.
      const int64_t month = storage::DateToDays(1995, 9, 1) + 30 * Pick(literals, -24, 24, 0);
      return StrPrintf(
          "SELECT SUM(l_extendedprice) AS promo FROM lineitem, part WHERE "
          "p_size BETWEEN 1 AND %lld AND l_shipdate BETWEEN %s AND %s",
          static_cast<long long>(Pick(literals, 5, 25, 15)), Date(month).c_str(),
          Date(month + 29).c_str());
    }
    case 5:  // Supplier rollup.
      return StrPrintf("SELECT COUNT(*) AS n FROM supplier, lineitem WHERE "
                       "s_acctbal > %lld GROUP BY l_suppkey",
                       static_cast<long long>(Pick(literals, -500, 5000, 0)));
    case kExp1Slot: {  // Experiment 1: correlated ship/receipt windows.
      const int64_t start = storage::DateToDays(1997, 7, 1);
      const int64_t offset = Pick(literals, 55, 92, exp1_offset);
      return "SELECT SUM(l_extendedprice) AS sum_price FROM lineitem WHERE "
             "l_shipdate BETWEEN " + Date(start) + " AND " + Date(start + 59) +
             " AND l_receiptdate BETWEEN " + Date(start + offset) + " AND " +
             Date(start + offset + 59);
    }
    default: {  // Experiment 2: correlated part columns, three-table join.
      const double offset =
          literals == nullptr ? exp2_offset
                             : 0.25 * static_cast<double>(literals->Next(40, 60));
      return StrPrintf("SELECT SUM(l_extendedprice) AS sum_price FROM "
                       "lineitem, orders, part WHERE p_c1 BETWEEN 50 AND 60 "
                       "AND p_c2 BETWEEN %.2f AND %.2f",
                       50.0 + offset, 60.0 + offset);
    }
  }
}

std::string SlotName(size_t slot) {
  static const char* const kNames[] = {"q1", "q3", "q5", "q6", "q14", "rollup"};
  return kNames[slot];
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "star_adhoc") {
    spec.kind = WorkloadKind::kStarAdhoc;
    spec.thresholds = {0.8};
    spec.prefix_rounds = 120;
    *out = std::move(spec);
    return true;
  }
  if (name == "tpch_cached") {
    spec.kind = WorkloadKind::kTpchCached;
  } else if (name == "tpch_adhoc") {
    spec.kind = WorkloadKind::kTpchAdhoc;
  } else if (name == "tpch_write_mix") {
    spec.kind = WorkloadKind::kTpchWriteMix;
  } else {
    return false;
  }
  for (size_t c = 0; c < kTpchClients; ++c) {
    spec.thresholds.push_back(kTpchThresholds[c % 3]);
  }
  Rng rng(perf::TaskSeed(seed, 0xe1e2));
  spec.rotation = rng.NextBounded(kTpchSlots);
  if (spec.kind != WorkloadKind::kTpchAdhoc) {
    for (size_t slot = 0; slot < kExp1Slot; ++slot) {
      spec.statements.emplace_back(SlotName(slot), TpchRead(slot, nullptr, 0, 0));
    }
    for (size_t v = 0; v < kTpchClients; ++v) {
      spec.statements.emplace_back(
          "exp1_" + std::to_string(v),
          TpchRead(kExp1Slot, nullptr, kExp1Offsets[v], 0));
      spec.statements.emplace_back(
          "exp2_" + std::to_string(v),
          TpchRead(kExp2Slot, nullptr, 0, kExp2Offsets[v]));
    }
  }
  spec.prefix_rounds = 160;
  *out = std::move(spec);
  return true;
}

std::unique_ptr<core::Database> BuildDatabase(const WorkloadSpec& spec,
                                              double* update_seconds) {
  auto db = std::make_unique<core::Database>();
  stats::StatisticsConfig stats_config;
  stats_config.seed = perf::TaskSeed(spec.seed, 0x57a7);
  Status loaded;
  if (spec.kind == WorkloadKind::kStarAdhoc) {
    workload::StarSchemaConfig config;
    config.fact_rows = 10000;
    config.num_dims = kStarDims;
    config.dim_rows = 1000;
    config.seed = perf::TaskSeed(spec.seed, 0xda7a);
    loaded = workload::LoadStarSchema(db->catalog(), config);
    stats_config.sample_size = kStarSampleSize;
  } else {
    tpch::TpchConfig config;
    config.scale_factor = kTpchScale;
    config.seed = perf::TaskSeed(spec.seed, 0xda7a);
    loaded = tpch::LoadTpch(db->catalog(), config);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 loaded.ToString().c_str());
    return nullptr;
  }
  const auto start = std::chrono::steady_clock::now();
  db->UpdateStatistics(stats_config);
  *update_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return db;
}

bool Serve(const WorkloadSpec& spec, ServedDatabase* out) {
  double update_seconds = 0.0;
  out->db = BuildDatabase(spec, &update_seconds);
  if (out->db == nullptr) return false;
  out->service = std::make_unique<server::QueryService>(out->db.get());
  out->sessions.clear();
  for (double threshold : spec.thresholds) {
    server::SessionOptions options;
    options.confidence_threshold = threshold;
    const server::SessionId id = out->service->OpenSession(options);
    for (const auto& [name, sql] : spec.statements) {
      const Status prepared = out->service->Prepare(id, name, sql);
      if (!prepared.ok()) {
        std::fprintf(stderr, "PREPARE %s failed: %s\n", name.c_str(),
                     prepared.ToString().c_str());
        return false;
      }
    }
    out->sessions.push_back(id);
  }
  return true;
}

std::vector<server::QueryRequest> ToServiceRequests(
    const Round& round, const std::vector<server::SessionId>& sessions) {
  std::vector<server::QueryRequest> requests;
  requests.reserve(round.size());
  for (const Request& r : round) {
    requests.push_back(
        r.prepared.empty()
            ? server::QueryRequest::Sql(sessions[r.client], r.sql)
            : server::QueryRequest::Prepared(sessions[r.client], r.prepared));
  }
  return requests;
}

RequestStream::RequestStream(const WorkloadSpec& spec)
    : spec_(spec), prepared_sql_(spec.statements.begin(), spec.statements.end()) {}

Round RequestStream::Next() {
  const size_t clients = spec_.thresholds.size();
  Round round;
  round.reserve(clients);
  inserted_this_round_.clear();
  // Stream index `clients` (one past the last client) draws the writers.
  Rng round_rng = RequestRng(spec_.seed, round_, clients + 1, clients);
  const std::vector<bool> writers = WriteClients(&round_rng);
  for (size_t c = 0; c < clients; ++c) {
    Rng rng = RequestRng(spec_.seed, round_, clients + 1, c);
    Request request;
    request.client = c;
    // Every round runs each TPC-H template once: client c takes slot
    // (round + c + rotation) mod 8, so batches have the same make-up.
    const size_t slot = (round_ + c + spec_.rotation) % kTpchSlots;
    if (spec_.kind == WorkloadKind::kStarAdhoc) {
      request.sql = StarQuery(&rng);
    } else if (writers[c]) {
      request.sql = WriteStatement(&rng);
      request.is_dml = true;
    } else if (spec_.kind == WorkloadKind::kTpchAdhoc) {
      Literals literals(spec_.seed, slot, template_uses_[slot]++);
      request.sql = TpchRead(slot, &literals, 0, 0);
    } else if (slot == kExp1Slot) {
      request.prepared = "exp1_" + std::to_string(c);
    } else if (slot == kExp2Slot) {
      request.prepared = "exp2_" + std::to_string(c);
    } else {
      request.prepared = SlotName(slot);
    }
    if (!request.prepared.empty()) request.sql = prepared_sql_.at(request.prepared);
    round.push_back(std::move(request));
  }
  // Rows inserted this round become deletable from the next round on, so
  // a DELETE never races an INSERT of the same round.
  for (int64_t key : inserted_this_round_) inserted_orders_.push_back(key);
  ++round_;
  return round;
}

std::vector<bool> RequestStream::WriteClients(Rng* rng) const {
  const size_t clients = spec_.thresholds.size();
  std::vector<bool> writers(clients, false);
  if (spec_.kind != WorkloadKind::kTpchWriteMix) return writers;
  const std::vector<size_t> order = Permutation(clients, rng);
  const size_t n = kWritesPerRound[round_ % std::size(kWritesPerRound)];
  for (size_t i = 0; i < n; ++i) writers[order[i]] = true;
  return writers;
}

std::string RequestStream::StarQuery(Rng* rng) const {
  // Each dimension filter selects one of ten attribute groups; dimensions
  // 2..6 share an offset from dimension 1, which steers how many fact rows
  // join (paper Experiment 3). The f_m2 band makes almost every request a
  // new statement, so the plan cache misses.
  const int64_t base = rng->NextInRange(0, 9);
  const int64_t shifted = (base + rng->NextInRange(0, 9)) % 10;
  const double lo = 0.01 * static_cast<double>(rng->NextInRange(0, 500));
  const double hi = lo + 0.01 * static_cast<double>(rng->NextInRange(200, 500));
  std::string sql = "SELECT SUM(f_m1) AS sum_m1, AVG(f_m2) AS avg_m2 FROM fact";
  for (uint64_t d = 1; d <= kStarDims; ++d) {
    sql += StrPrintf(", dim%llu", static_cast<unsigned long long>(d));
  }
  sql += StrPrintf(" WHERE d1_attr = %lld", static_cast<long long>(base));
  for (uint64_t d = 2; d <= kStarDims; ++d) {
    sql += StrPrintf(" AND d%llu_attr = %lld",
                     static_cast<unsigned long long>(d),
                     static_cast<long long>(shifted));
  }
  sql += StrPrintf(" AND f_m2 BETWEEN %.2f AND %.2f", lo, hi);
  return sql;
}

std::string RequestStream::WriteStatement(Rng* rng) {
  const int64_t orders = static_cast<int64_t>(tpch::kOrdersPerSf * kTpchScale);
  const uint64_t kind = writes_++ % 3;
  if (kind == 2 && !inserted_orders_.empty()) {
    const int64_t key = inserted_orders_.front();
    inserted_orders_.pop_front();
    return StrPrintf(
        "DELETE FROM lineitem WHERE l_orderkey = %lld AND l_linenumber >= %lld",
        static_cast<long long>(key), static_cast<long long>(kInsertedLine));
  }
  if (kind == 1) {
    const int64_t lo = rng->NextInRange(1, orders - kUpdateBand);
    return StrPrintf(
        "UPDATE orders SET o_totalprice = o_totalprice * 1.01 "
        "WHERE o_orderkey BETWEEN %lld AND %lld",
        static_cast<long long>(lo),
        static_cast<long long>(lo + kUpdateBand - 1));
  }
  // Two new lines of an existing order, referencing existing parts and
  // suppliers so every foreign key still resolves.
  const int64_t key = rng->NextInRange(1, orders);
  const int64_t parts = static_cast<int64_t>(tpch::kPartsPerSf * kTpchScale);
  const int64_t suppliers =
      static_cast<int64_t>(tpch::kSuppliersPerSf * kTpchScale);
  std::string sql = "INSERT INTO lineitem VALUES ";
  for (int64_t line = 0; line < 2; ++line) {
    const int64_t ship =
        rng->NextInRange(tpch::MinOrderDate(), tpch::MaxOrderDate());
    const double quantity = static_cast<double>(rng->NextInRange(1, 50));
    sql += StrPrintf(
        "%s(%lld, %lld, %lld, %lld, %.1f, %.2f, %.2f, %s, %s, %s)",
        line == 0 ? "" : ", ", static_cast<long long>(key),
        static_cast<long long>(rng->NextInRange(1, parts)),
        static_cast<long long>(rng->NextInRange(1, suppliers)),
        static_cast<long long>(kInsertedLine + line), quantity,
        quantity * rng->NextDoubleInRange(900.0, 2100.0),
        0.01 * static_cast<double>(rng->NextInRange(0, 10)),
        Date(ship).c_str(), Date(ship + rng->NextInRange(1, 60)).c_str(),
        Date(ship + rng->NextInRange(1, 30)).c_str());
  }
  inserted_this_round_.push_back(key);
  return sql;
}

}  // namespace e2e
}  // namespace robustqo
