// The benchmark's three seeded workloads and the closed-loop request
// stream that drives them.
//
// Every workload is a fixed population of client sessions. Each round,
// every client submits exactly one request and the round goes to the
// service as one ExecuteBatch (a closed loop: the next round starts when
// the batch returns). The stream is a pure function of the workload seed
// and the round number, so the untraced run, the traced replay and the
// correctness check all see the same requests.

#ifndef ROBUSTQO_E2E_BENCH_WORKLOADS_H_
#define ROBUSTQO_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "server/query_service.h"
#include "util/rng.h"

namespace robustqo {
namespace e2e {

enum class WorkloadKind { kTpchCached, kTpchAdhoc, kStarAdhoc, kTpchWriteMix };

/// One client's request for one round: EXECUTE of a prepared statement
/// (when `prepared` is set) or a one-shot SQL statement. `sql` is the
/// statement's text either way.
struct Request {
  size_t client = 0;
  std::string prepared;
  std::string sql;
  bool is_dml = false;
};

using Round = std::vector<Request>;

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kTpchCached;
  std::string name;
  uint64_t seed = 0;
  /// Session T% per client (the clients' count is its size).
  std::vector<double> thresholds;
  /// Read statements every session PREPAREs: (name, SQL).
  std::vector<std::pair<std::string, std::string>> statements;
  /// TPC-H workloads: seeded offset of the statement rotation.
  size_t rotation = 0;
  /// Rounds every run completes before it may stop at its deadline. The
  /// simulated-cost metrics and the traced replay cover exactly these, so
  /// their counts repeat for a given seed.
  size_t prefix_rounds = 0;
};

/// Builds the named workload for `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

/// Generates the workload's data into a fresh database and builds its
/// statistics. `update_seconds` receives the UpdateStatistics wall time.
std::unique_ptr<core::Database> BuildDatabase(const WorkloadSpec& spec,
                                              double* update_seconds);

/// A database serving the workload through the default QueryService:
/// one session per client, every read statement PREPAREd in each.
/// Members are declared so the service, which borrows `db`, is destroyed
/// first.
struct ServedDatabase {
  std::unique_ptr<core::Database> db;
  std::unique_ptr<server::QueryService> service;
  std::vector<server::SessionId> sessions;
};

/// Returns false (with a message on stderr) if a PREPARE fails.
bool Serve(const WorkloadSpec& spec, ServedDatabase* out);

/// Converts one round to the service's request type.
std::vector<server::QueryRequest> ToServiceRequests(
    const Round& round, const std::vector<server::SessionId>& sessions);

/// The closed-loop request stream. Rounds must be drawn in order.
class RequestStream {
 public:
  explicit RequestStream(const WorkloadSpec& spec);
  Round Next();

 private:
  std::string StarQuery(Rng* rng) const;
  std::string WriteStatement(Rng* rng);
  /// Number of writes in the current round and which clients send them.
  std::vector<bool> WriteClients(Rng* rng) const;

  const WorkloadSpec& spec_;
  std::map<std::string, std::string> prepared_sql_;
  uint64_t round_ = 0;
  /// Order keys of lineitem rows this stream inserted in earlier rounds,
  /// oldest first — what its DELETEs remove.
  std::deque<int64_t> inserted_orders_;
  std::vector<int64_t> inserted_this_round_;
  /// Writes issued so far; their kinds rotate INSERT, UPDATE, DELETE.
  uint64_t writes_ = 0;
  /// tpch_adhoc: uses of each read template so far.
  std::vector<uint64_t> template_uses_ = std::vector<uint64_t>(8, 0);
};

}  // namespace e2e
}  // namespace robustqo

#endif  // ROBUSTQO_E2E_BENCH_WORKLOADS_H_
