// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Sessions: the per-client state of the concurrent query service. A
// session carries the knobs a DBA or application sets per connection —
// the confidence threshold T% (the paper's one robustness knob), the
// estimator kind, per-query governor budgets — plus a deterministic
// seeded RNG stream that derives one independent seed per request (the
// same splitmix64-over-index scheme perf::TaskSeed uses), so a
// multi-session run is replayable bit-for-bit from (service seed,
// session id, request ordinal) alone.
//
// Like the rest of the engine, sessions are single-writer state: the
// QueryService mutates them only from its coordinator thread (the
// sequential phases of the scheduler), never from pool workers.

#ifndef ROBUSTQO_SERVER_SESSION_H_
#define ROBUSTQO_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "fault/governor.h"
#include "optimizer/query.h"
#include "sql/parser.h"
#include "util/status.h"

namespace robustqo {
namespace server {

using SessionId = uint64_t;

/// Per-connection knobs, fixed at session open.
struct SessionOptions {
  /// Diagnostic label shown in `.sessions`; defaults to "session-<id>".
  std::string name;
  /// Per-session T%; 0 inherits the database's system-wide threshold.
  /// Part of the plan-cache key: two sessions at different T% never share
  /// a cached plan (the paper's whole point is that T changes the plan).
  double confidence_threshold = 0.0;
  core::EstimatorKind estimator = core::EstimatorKind::kRobustSample;
  /// Per-query budgets enforced by this session's query governors.
  fault::GovernorLimits governor_limits;
};

/// A statement registered with PREPARE, ready for repeated EXECUTE.
/// Queries and DML both prepare; `kind` says which payload is valid.
struct PreparedStatement {
  std::string name;
  std::string sql;
  robustqo::sql::StatementKind kind = robustqo::sql::StatementKind::kQuery;
  opt::QuerySpec spec;           ///< valid when kind == kQuery
  robustqo::sql::DmlSpec dml;    ///< valid otherwise
  /// Canonical statement fingerprint (plan_cache.h) — the plan-cache and
  /// quality-monitor key for every execution of this statement. DML
  /// statements fingerprint their text (they never hit the plan cache).
  uint64_t fingerprint = 0;

  bool is_dml() const { return kind != robustqo::sql::StatementKind::kQuery; }
};

/// Read-only snapshot of one session for reports and metrics.
struct SessionInfo {
  SessionId id = 0;
  std::string name;
  double confidence_threshold = 0.0;  ///< 0 = inherits the system default
  uint64_t prepared_statements = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
};

class Session {
 public:
  Session(SessionId id, SessionOptions options, uint64_t seed);

  SessionId id() const { return id_; }
  const SessionOptions& options() const { return options_; }
  /// Display label ("session-<id>" unless the options named it) — the key
  /// the SLO monitor's per-session scopes and trace lanes use.
  const std::string& name() const { return options_.name; }
  uint64_t seed() const { return seed_; }

  /// Seed for this session's next request: an independent splitmix64
  /// stream over the request ordinal, independent of scheduling.
  uint64_t NextRequestSeed();

  // -- Prepared statements (per-session namespace) --
  Status Prepare(PreparedStatement statement);
  const PreparedStatement* FindPrepared(const std::string& name) const;
  Status Deallocate(const std::string& name);
  const std::map<std::string, PreparedStatement>& prepared() const {
    return prepared_;
  }

  // -- Outcome tallies (maintained by the QueryService coordinator) --
  void CountSubmitted() { ++submitted_; }
  void CountCompleted() { ++completed_; }
  void CountFailed() { ++failed_; }
  void CountRejected() { ++rejected_; }

  SessionInfo Info() const;

 private:
  SessionId id_;
  SessionOptions options_;
  uint64_t seed_;
  uint64_t request_ordinal_ = 0;
  std::map<std::string, PreparedStatement> prepared_;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t rejected_ = 0;
};

/// Owns all sessions of one QueryService. Session ids are dense and
/// monotonically increasing, so a run's session layout is a pure function
/// of the open/close sequence.
class SessionManager {
 public:
  explicit SessionManager(uint64_t base_seed = 0);

  /// Opens a session; never fails (ids are unbounded).
  SessionId Open(SessionOptions options = {});
  /// kNotFound when the id was never opened or already closed.
  Status Close(SessionId id);

  /// Borrowed pointer, nullptr when closed/unknown.
  Session* Get(SessionId id);
  const Session* Get(SessionId id) const;

  size_t open_count() const { return sessions_.size(); }
  uint64_t opened_total() const { return next_id_ - 1; }

  /// Snapshots ordered by session id (deterministic).
  std::vector<SessionInfo> Snapshot() const;

  /// Aligned text table for the shell's `.sessions`.
  std::string ReportText() const;

 private:
  uint64_t base_seed_;
  SessionId next_id_ = 1;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
};

}  // namespace server
}  // namespace robustqo

#endif  // ROBUSTQO_SERVER_SESSION_H_
