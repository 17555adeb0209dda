// Chaos sweep: hundreds of seeded fault configurations over real queries.
// The contract under test is the PR's headline guarantee — under any
// combination of injected faults and governor budgets, a query either
// completes with a verified-correct answer or fails with a clean typed
// Status. No crashes, no wrong answers, no untyped errors.

#include <gtest/gtest.h>

#include "chaos_harness.h"
#include "core/database.h"
#include "tpch/tpch_gen.h"
#include "workload/scenarios.h"

namespace robustqo {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new core::Database();
    tpch::TpchConfig config;
    config.scale_factor = 0.005;
    ASSERT_TRUE(tpch::LoadTpch(db_->catalog(), config).ok());
    db_->UpdateStatistics();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::vector<opt::QuerySpec> ScenarioQueries() {
    std::vector<opt::QuerySpec> queries;
    workload::SingleTableScenario single;
    queries.push_back(single.MakeQuery(70));
    workload::ThreeTableJoinScenario join;
    queries.push_back(join.MakeQuery(12.0));
    queries.push_back(join.MakeQuery(45.0));
    return queries;
  }

  static core::Database* db_;
};

core::Database* ChaosTest::db_ = nullptr;

TEST_F(ChaosTest, TwoHundredSeededConfigsNeverViolateContract) {
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig config;
  config.base_seed = 20240501;
  config.runs = 220;
  workload::ChaosReport report = harness.Run(config, ScenarioQueries());
  EXPECT_EQ(report.runs, 220u);
  EXPECT_TRUE(report.ContractHolds()) << report.Summary();
  EXPECT_EQ(report.completed + report.failed_typed, report.runs);
  // The sweep must actually exercise both outcomes: plenty of runs survive
  // their faults and plenty die typed. A sweep where everything passes (or
  // everything fails) isn't testing the boundary.
  EXPECT_GT(report.completed, 20u) << report.Summary();
  EXPECT_GT(report.failed_typed, 20u) << report.Summary();
  // Every fault site got armed at some point across 220 runs.
  EXPECT_EQ(report.armed_counts.size(), fault::KnownFaultSites().size())
      << report.Summary();
}

TEST_F(ChaosTest, SweepsAreReplayableBitForBit) {
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig config;
  config.base_seed = 77;
  config.runs = 25;
  const auto queries = ScenarioQueries();
  workload::ChaosReport a = harness.Run(config, queries);
  workload::ChaosReport b = harness.Run(config, queries);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed_typed, b.failed_typed);
}

TEST_F(ChaosTest, DifferentSeedsProduceDifferentChaos) {
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig a_cfg;
  a_cfg.base_seed = 1;
  a_cfg.runs = 40;
  workload::ChaosConfig b_cfg = a_cfg;
  b_cfg.base_seed = 2;
  const auto queries = ScenarioQueries();
  workload::ChaosReport a = harness.Run(a_cfg, queries);
  workload::ChaosReport b = harness.Run(b_cfg, queries);
  EXPECT_NE(a.Summary(), b.Summary());
}

TEST_F(ChaosTest, MultiSessionSweepHoldsContractThroughTheServiceLayer) {
  // Multi-session configs route every run through a server::QueryService —
  // admission control and the plan cache sit in front of the executor, and
  // the server.admission.enqueue / server.plan_cache.lookup fault sites
  // actually fire. Contract unchanged: correct answer or clean typed
  // failure.
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig config;
  config.base_seed = 20260805;
  config.runs = 120;
  config.sessions = 4;
  workload::ChaosReport report = harness.Run(config, ScenarioQueries());
  EXPECT_EQ(report.runs, 120u);
  EXPECT_TRUE(report.ContractHolds()) << report.Summary();
  EXPECT_EQ(report.completed + report.failed_typed, report.runs);
  EXPECT_GT(report.completed, 10u) << report.Summary();
  EXPECT_GT(report.failed_typed, 10u) << report.Summary();
  // The serving-layer sites were armed across the sweep.
  EXPECT_GT(report.armed_counts["server.admission.enqueue"], 0u);
  EXPECT_GT(report.armed_counts["server.plan_cache.lookup"], 0u);
  // Replayable bit-for-bit like every other sweep.
  workload::ChaosReport again = harness.Run(config, ScenarioQueries());
  EXPECT_EQ(report.Summary(), again.Summary());
}

std::vector<std::string> DmlStatements() {
  return {
      "UPDATE orders SET o_totalprice = o_totalprice * 1.01 "
      "WHERE o_orderkey < 40",
      "INSERT INTO lineitem VALUES (1, 1, 1, 99, 10.0, 1000.0, 0.05, "
      "DATE '1995-06-17', DATE '1995-07-01', DATE '1995-07-15')",
      "DELETE FROM orders WHERE o_orderkey > 1000000",
  };
}

TEST_F(ChaosTest, DmlSweepHoldsTheAtomicCommitContract) {
  // The write-path sweep: seeded fault configurations (including the
  // storage.write.apply / storage.write.commit sites) over
  // INSERT/UPDATE/DELETE. The contract is checked by table checksum —
  // after every run the catalog equals either the pre-write state (clean
  // full rollback) or the fault-free committed reference (the retry
  // healed it). Anything in between is a torn write.
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig config;
  config.base_seed = 20260808;
  config.runs = 150;
  workload::ChaosReport report = harness.RunDml(config, DmlStatements());
  EXPECT_EQ(report.runs, 150u);
  EXPECT_TRUE(report.ContractHolds()) << report.Summary();
  EXPECT_EQ(report.completed + report.failed_typed, report.runs);
  // Both outcomes must occur: commits surviving their faults AND clean
  // typed rollbacks.
  EXPECT_GT(report.completed, 10u) << report.Summary();
  EXPECT_GT(report.failed_typed, 10u) << report.Summary();
  // The write-path sites were armed across the sweep.
  EXPECT_GT(report.armed_counts["storage.write.apply"], 0u);
  EXPECT_GT(report.armed_counts["storage.write.commit"], 0u);
}

TEST_F(ChaosTest, DmlSweepIsReplayableBitForBit) {
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig config;
  config.base_seed = 424242;
  config.runs = 40;
  workload::ChaosReport a = harness.RunDml(config, DmlStatements());
  workload::ChaosReport b = harness.RunDml(config, DmlStatements());
  EXPECT_TRUE(a.ContractHolds()) << a.Summary();
  EXPECT_EQ(a.Summary(), b.Summary());
}

TEST_F(ChaosTest, DmlSweepLeavesDatabaseClean) {
  workload::ChaosHarness harness(db_);
  const uint64_t epoch_before = db_->catalog()->data_epoch();
  workload::ChaosConfig config;
  config.base_seed = 5;
  config.runs = 20;
  workload::ChaosReport report = harness.RunDml(config, DmlStatements());
  EXPECT_TRUE(report.ContractHolds()) << report.Summary();
  // Every run's effects were reverted: the data epoch and all faults and
  // limits are back to the pre-sweep state.
  EXPECT_EQ(db_->catalog()->data_epoch(), epoch_before);
  for (const std::string& site : fault::KnownFaultSites()) {
    EXPECT_FALSE(db_->fault_injector()->IsArmed(site)) << site;
  }
  EXPECT_TRUE(db_->governor_limits().Unlimited());
}

TEST_F(ChaosTest, HarnessLeavesDatabaseClean) {
  workload::ChaosHarness harness(db_);
  workload::ChaosConfig config;
  config.runs = 10;
  (void)harness.Run(config, ScenarioQueries());
  // No faults left armed, no governor limits left behind.
  for (const std::string& site : fault::KnownFaultSites()) {
    EXPECT_FALSE(db_->fault_injector()->IsArmed(site)) << site;
  }
  EXPECT_TRUE(db_->governor_limits().Unlimited());
  workload::SingleTableScenario scenario;
  auto result = db_->Execute(scenario.MakeQuery(70),
                             core::EstimatorKind::kRobustSample);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace robustqo
