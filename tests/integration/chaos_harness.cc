#include "chaos_harness.h"

#include <cmath>
#include <cstdlib>

#include "fault/fault_injector.h"
#include "fault/governor.h"
#include "perf/task_pool.h"
#include "server/query_service.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace robustqo {
namespace workload {

namespace {

// The failure codes the robustness contract allows: injected transient
// faults, governor trips and cooperative cancellation. Anything else
// (Internal, untyped parse errors, ...) is a contract violation under
// chaos, because the inputs were valid queries.
bool IsCleanFailure(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kCancelled;
}

// Seed-derived arming for one run. Returns a human-readable description.
std::string ArmRandomFaults(fault::FaultInjector* injector, Rng* rng,
                            double arm_probability,
                            std::vector<std::string>* armed_sites) {
  std::string description;
  for (const std::string& site : fault::KnownFaultSites()) {
    if (!rng->NextBernoulli(arm_probability)) continue;
    fault::FaultSpec spec;
    switch (rng->NextBounded(4)) {
      case 0:
        spec = fault::FaultSpec::Always();
        break;
      case 1:
        spec = fault::FaultSpec::FirstN(
            static_cast<uint64_t>(rng->NextInRange(1, 3)));
        break;
      case 2:
        spec = fault::FaultSpec::OnNth(
            static_cast<uint64_t>(rng->NextInRange(1, 50)));
        break;
      default:
        spec = fault::FaultSpec::Probability(rng->NextDoubleInRange(0.01, 0.5));
        break;
    }
    if (site == fault::sites::kOperatorAlloc) {
      spec.code = StatusCode::kResourceExhausted;
    }
    if (site == fault::sites::kClockStall) {
      spec.stall_seconds = rng->NextDoubleInRange(0.5, 50.0);
    }
    injector->Arm(site, spec);
    armed_sites->push_back(site);
    if (!description.empty()) description += " ";
    description += site + "=" + spec.ToString();
  }
  return description;
}

fault::GovernorLimits RandomGovernorLimits(Rng* rng) {
  fault::GovernorLimits limits;
  // Log-uniform ranges straddling what the scenario queries actually use,
  // so some runs trip and others squeak through.
  limits.memory_limit_bytes = 1ull << rng->NextInRange(14, 26);
  limits.row_limit = 1ull << rng->NextInRange(6, 24);
  if (rng->NextBernoulli(0.5)) {
    limits.time_limit_seconds = rng->NextDoubleInRange(0.001, 30.0);
  }
  return limits;
}

// Reference fingerprint of a result for cross-run verification.
struct Reference {
  uint64_t num_rows = 0;
  bool numeric = false;
  double first_cell = 0.0;
  std::string first_cell_text;
};

Reference Fingerprint(const storage::Table& rows) {
  Reference ref;
  ref.num_rows = rows.num_rows();
  if (rows.num_rows() > 0 && rows.schema().num_columns() > 0) {
    const storage::Value v = rows.ValueAt(0, 0);
    if (v.type() == storage::DataType::kString) {
      ref.first_cell_text = v.AsString();
    } else {
      ref.numeric = true;
      ref.first_cell = v.NumericValue();
    }
  }
  return ref;
}

// Different (degraded) plans may reassociate floating-point aggregation,
// so numeric answers match within a tight relative tolerance, not
// bit-for-bit.
bool Matches(const Reference& expected, const Reference& actual) {
  if (expected.num_rows != actual.num_rows) return false;
  if (expected.num_rows == 0) return true;
  if (expected.numeric != actual.numeric) return false;
  if (!expected.numeric) {
    return expected.first_cell_text == actual.first_cell_text;
  }
  const double tolerance =
      1e-6 * std::max(1.0, std::abs(expected.first_cell));
  return std::abs(expected.first_cell - actual.first_cell) <= tolerance;
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::string out = StrPrintf(
      "chaos: %zu runs, %zu completed correct, %zu failed typed, "
      "%zu violations\n",
      runs, completed, failed_typed, violations.size());
  for (const auto& [code, count] : failures_by_code) {
    out += StrPrintf("  failure %-18s %zu\n", code.c_str(), count);
  }
  for (const auto& [site, count] : armed_counts) {
    out += StrPrintf("  armed   %-22s %zu\n", site.c_str(), count);
  }
  for (const ChaosRunOutcome& v : violations) {
    out += StrPrintf("  VIOLATION seed=%llu [%s] %s\n",
                     static_cast<unsigned long long>(v.seed),
                     v.armed.c_str(),
                     v.executed ? "wrong answer" : v.error.c_str());
  }
  return out;
}

namespace {

// Everything one run produces; aggregated into the report sequentially, in
// run-index order, so the report does not depend on completion order.
struct RunResult {
  ChaosRunOutcome outcome;
  std::vector<std::string> armed_sites;
};

// One self-contained chaos run against `db`: every input is derived from
// (config, run index) and the database is restored (disarmed, unlimited)
// before returning, so the result is the same whichever thread or Database
// replica executes it.
RunResult ExecuteOneRun(core::Database* db, const ChaosConfig& config,
                        const std::vector<opt::QuerySpec>& queries,
                        const std::vector<Reference>& references, size_t i) {
  const uint64_t seed = config.base_seed + i;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t qi = i % queries.size();

  db->fault_injector()->Reseed(seed);
  RunResult run;
  run.outcome.seed = seed;
  run.outcome.armed = ArmRandomFaults(db->fault_injector(), &rng,
                                      config.arm_probability,
                                      &run.armed_sites);
  fault::GovernorLimits limits;
  const bool governed = rng.NextBernoulli(config.governor_probability);
  if (governed) limits = RandomGovernorLimits(&rng);

  if (config.sessions > 0) {
    // Service path: admission control + plan cache sit between the run and
    // the executor, so server.admission.enqueue / server.plan_cache.lookup
    // faults actually fire. The governor budget travels as session limits.
    server::ServerConfig server_config;
    server_config.seed = seed;
    server::QueryService service(db, server_config);
    service.set_metrics(db->metrics());
    std::vector<server::SessionId> ids;
    ids.reserve(config.sessions);
    for (size_t s = 0; s < config.sessions; ++s) {
      server::SessionOptions options;
      options.name = StrPrintf("chaos-%zu", s);
      if (governed) options.governor_limits = limits;
      ids.push_back(service.OpenSession(options));
    }
    const size_t pick = static_cast<size_t>(rng.NextBounded(ids.size()));
    server::QueryResponse response =
        service.ExecuteSpec(ids[pick], queries[qi]);
    if (response.status.ok()) {
      run.outcome.executed = true;
      run.outcome.verified =
          Matches(references[qi], Fingerprint(response.result->rows));
    } else {
      run.outcome.code = response.status.code();
      run.outcome.error = response.status.ToString();
    }
  } else {
    if (governed) db->SetGovernorLimits(limits);
    Result<core::ExecutionResult> result =
        db->Execute(queries[qi], core::EstimatorKind::kRobustSample);
    if (result.ok()) {
      run.outcome.executed = true;
      run.outcome.verified =
          Matches(references[qi], Fingerprint(result.value().rows));
    } else {
      run.outcome.code = result.status().code();
      run.outcome.error = result.status().ToString();
    }
  }

  db->fault_injector()->DisarmAll();
  db->SetGovernorLimits({});
  return run;
}

}  // namespace

namespace {

// Visible checksum of every table, keyed by name — the state fingerprint
// the atomic-commit contract compares.
std::map<std::string, uint64_t> CatalogChecksums(
    const storage::Catalog& catalog) {
  std::map<std::string, uint64_t> sums;
  for (const std::string& name : catalog.TableNames()) {
    sums[name] = catalog.GetTable(name)->VisibleChecksum();
  }
  return sums;
}

}  // namespace

ChaosReport ChaosHarness::RunDml(const ChaosConfig& config,
                                 const std::vector<std::string>& statements) {
  ChaosReport report;
  if (statements.empty()) return report;

  db_->fault_injector()->DisarmAll();
  db_->SetGovernorLimits({});
  const uint64_t pre_epoch = db_->catalog()->data_epoch();
  const std::map<std::string, uint64_t> pre_sums =
      CatalogChecksums(*db_->catalog());

  // Fault-free committed reference per statement: execute it cleanly,
  // fingerprint the committed state, then revert so every statement (and
  // later every chaotic run) starts from the same base state.
  std::vector<std::map<std::string, uint64_t>> committed_sums;
  committed_sums.reserve(statements.size());
  for (const std::string& statement : statements) {
    Result<core::StatementResult> clean = db_->ExecuteStatement(statement);
    RQO_CHECK_MSG(clean.ok() && clean.value().dml.has_value(),
                  "chaos DML reference execution failed");
    committed_sums.push_back(CatalogChecksums(*db_->catalog()));
    db_->catalog()->RevertWritesAfter(pre_epoch);
    RQO_CHECK_MSG(CatalogChecksums(*db_->catalog()) == pre_sums,
                  "chaos DML revert did not restore the base state");
  }

  for (size_t i = 0; i < config.runs; ++i) {
    const uint64_t seed = config.base_seed + i;
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const size_t qi = i % statements.size();

    db_->fault_injector()->Reseed(seed);
    ChaosRunOutcome outcome;
    outcome.seed = seed;
    std::vector<std::string> armed_sites;
    outcome.armed = ArmRandomFaults(db_->fault_injector(), &rng,
                                    config.arm_probability, &armed_sites);
    if (rng.NextBernoulli(config.governor_probability)) {
      db_->SetGovernorLimits(RandomGovernorLimits(&rng));
    }

    Result<core::StatementResult> result =
        db_->ExecuteStatement(statements[qi]);
    const std::map<std::string, uint64_t> after =
        CatalogChecksums(*db_->catalog());

    ++report.runs;
    for (const std::string& site : armed_sites) ++report.armed_counts[site];
    if (result.ok()) {
      outcome.executed = true;
      outcome.verified = (after == committed_sums[qi]);
      if (outcome.verified) {
        ++report.completed;
      } else {
        outcome.error = "committed state differs from reference";
        report.violations.push_back(outcome);
      }
    } else {
      outcome.code = result.status().code();
      outcome.error = result.status().ToString();
      ++report.failures_by_code[StatusCodeName(outcome.code)];
      const bool rolled_back = (after == pre_sums);
      if (IsCleanFailure(outcome.code) && rolled_back) {
        ++report.failed_typed;
      } else {
        if (!rolled_back) {
          outcome.error += " [rollback incomplete: state differs from "
                           "pre-write]";
        }
        report.violations.push_back(outcome);
      }
    }

    db_->fault_injector()->DisarmAll();
    db_->SetGovernorLimits({});
    db_->catalog()->RevertWritesAfter(pre_epoch);
  }
  return report;
}

ChaosReport ChaosHarness::Run(const ChaosConfig& config,
                              const std::vector<opt::QuerySpec>& queries) {
  ChaosReport report;
  if (queries.empty()) return report;

  // Fault-free reference answers, one per query.
  db_->fault_injector()->DisarmAll();
  db_->SetGovernorLimits({});
  std::vector<Reference> references;
  references.reserve(queries.size());
  for (const opt::QuerySpec& query : queries) {
    Result<core::ExecutionResult> clean =
        db_->Execute(query, core::EstimatorKind::kRobustSample);
    RQO_CHECK_MSG(clean.ok(), "chaos reference execution failed");
    references.push_back(Fingerprint(clean.value().rows));
  }

  std::vector<RunResult> results(config.runs);
  // Per-run metrics registries: each run records into its own registry and
  // the registries are merged in run-index order below. Counter sums,
  // histogram/sketch merges and gauge maxima are all independent of how
  // runs were partitioned across workers, so the merged registry — and any
  // export rendered from it — is byte-identical at every thread count. (A
  // registry shared across runs would leak scheduling through
  // last-write-wins gauges like governor.peak_memory_bytes.)
  std::vector<std::unique_ptr<obs::MetricsRegistry>> run_metrics;
  if (config.metrics != nullptr) {
    run_metrics.resize(config.runs);
    for (auto& registry : run_metrics) {
      registry = std::make_unique<obs::MetricsRegistry>();
    }
  }
  perf::TaskPool* pool = perf::TaskPool::Global();
  if (config.database_factory != nullptr && pool->threads() > 1 &&
      config.runs > 1) {
    // Parallel sweep: one Database replica per worker (built lazily the
    // first time the worker claims a run), each run writing only its own
    // results slot.
    std::vector<std::unique_ptr<core::Database>> worker_dbs(pool->threads());
    pool->ParallelForWorker(config.runs, [&](unsigned worker, size_t i) {
      if (worker_dbs[worker] == nullptr) {
        worker_dbs[worker] = config.database_factory();
      }
      if (config.metrics != nullptr) {
        worker_dbs[worker]->SetMetrics(run_metrics[i].get());
      }
      results[i] =
          ExecuteOneRun(worker_dbs[worker].get(), config, queries,
                        references, i);
    });
  } else {
    obs::MetricsRegistry* saved = db_->metrics();
    for (size_t i = 0; i < config.runs; ++i) {
      if (config.metrics != nullptr) db_->SetMetrics(run_metrics[i].get());
      results[i] = ExecuteOneRun(db_, config, queries, references, i);
    }
    if (config.metrics != nullptr) db_->SetMetrics(saved);
  }
  for (const auto& registry : run_metrics) {
    config.metrics->MergeFrom(*registry);
  }

  // Ordered reduction: identical report at every thread count.
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& run = results[i];
    ++report.runs;
    for (const std::string& site : run.armed_sites) {
      ++report.armed_counts[site];
    }
    if (run.outcome.executed) {
      if (run.outcome.verified) {
        ++report.completed;
      } else {
        report.violations.push_back(run.outcome);
      }
    } else {
      ++report.failures_by_code[StatusCodeName(run.outcome.code)];
      if (IsCleanFailure(run.outcome.code)) {
        ++report.failed_typed;
      } else {
        report.violations.push_back(run.outcome);
      }
    }
  }
  return report;
}

}  // namespace workload
}  // namespace robustqo
