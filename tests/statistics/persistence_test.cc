#include "statistics/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "expr/expression.h"
#include "statistics/histogram_estimator.h"
#include "statistics/robust_sample_estimator.h"
#include "tpch/tpch_gen.h"

namespace robustqo {
namespace stats {
namespace {

namespace fs = std::filesystem;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rqo_stats_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);

    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(&catalog_, config).ok());
    statistics_ = std::make_unique<StatisticsCatalog>(&catalog_);
    statistics_->BuildAllHistograms(100);
    StatisticsConfig stats_config;
    stats_config.sample_size = 200;
    stats_config.seed = 5;
    statistics_->BuildAllSamples(stats_config);
  }
  void TearDown() override { fs::remove_all(dir_); }

  storage::Catalog catalog_;
  std::unique_ptr<StatisticsCatalog> statistics_;
  fs::path dir_;
};

TEST_F(PersistenceTest, SaveWritesOneFilePerEntry) {
  ASSERT_TRUE(SaveStatistics(*statistics_, dir_.string()).ok());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".rqs");
    ++files;
  }
  EXPECT_EQ(files, statistics_->AllHistograms().size() +
                       statistics_->AllSamples().size() +
                       statistics_->AllSynopses().size());
}

TEST_F(PersistenceTest, RoundTripPreservesEstimates) {
  ASSERT_TRUE(SaveStatistics(*statistics_, dir_.string()).ok());

  StatisticsCatalog restored(&catalog_);
  ASSERT_TRUE(LoadStatistics(dir_.string(), &restored).ok());

  // Histogram estimates identical.
  HistogramEstimator hist_before(statistics_.get());
  HistogramEstimator hist_after(&restored);
  auto pred = expr::Between(expr::Col("l_shipdate"),
                            storage::Value::Date(10000),
                            storage::Value::Date(10100));
  CardinalityRequest request{{"lineitem"}, pred};
  EXPECT_NEAR(hist_after.EstimateRows(request, {}).value(),
              hist_before.EstimateRows(request, {}).value(), 1e-6);

  // Robust estimates identical (same sample tuples restored).
  RobustSampleEstimator robust_before(statistics_.get(),
                                      RobustEstimatorConfig{});
  RobustSampleEstimator robust_after(&restored, RobustEstimatorConfig{});
  EXPECT_NEAR(robust_after.EstimateRows(request, {}).value(),
              robust_before.EstimateRows(request, {}).value(), 1e-6);

  // Join requests still resolve through the restored synopsis.
  CardinalityRequest join_request{{"lineitem", "orders", "part"}, pred};
  EXPECT_NEAR(robust_after.EstimateRows(join_request, {}).value(),
              robust_before.EstimateRows(join_request, {}).value(), 1e-6);
}

TEST_F(PersistenceTest, RestoredSynopsisMetadataIntact) {
  ASSERT_TRUE(SaveStatistics(*statistics_, dir_.string()).ok());
  StatisticsCatalog restored(&catalog_);
  ASSERT_TRUE(LoadStatistics(dir_.string(), &restored).ok());
  const JoinSynopsis* synopsis = restored.GetSynopsis("lineitem");
  ASSERT_NE(synopsis, nullptr);
  EXPECT_EQ(synopsis->root_row_count(),
            catalog_.GetTable("lineitem")->num_rows());
  EXPECT_TRUE(synopsis->Covers({"lineitem", "orders", "part"}));
  EXPECT_EQ(synopsis->size(), 200u);
  const TableSample* sample = restored.GetSample("part");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->source_row_count(),
            catalog_.GetTable("part")->num_rows());
}

TEST_F(PersistenceTest, LoadMissingDirectoryFails) {
  StatisticsCatalog restored(&catalog_);
  EXPECT_EQ(
      LoadStatistics("/nonexistent/robustqo", &restored).code(),
      StatusCode::kNotFound);
}

TEST_F(PersistenceTest, MalformedFileRejected) {
  fs::create_directories(dir_);
  {
    std::FILE* f = std::fopen((dir_ / "bogus.rqs").c_str(), "w");
    std::fputs("not a statistics file\n", f);
    std::fclose(f);
  }
  StatisticsCatalog restored(&catalog_);
  EXPECT_EQ(LoadStatistics(dir_.string(), &restored).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, NonStatisticsFilesIgnored) {
  ASSERT_TRUE(SaveStatistics(*statistics_, dir_.string()).ok());
  {
    std::FILE* f = std::fopen((dir_ / "README.txt").c_str(), "w");
    std::fputs("hello\n", f);
    std::fclose(f);
  }
  StatisticsCatalog restored(&catalog_);
  EXPECT_TRUE(LoadStatistics(dir_.string(), &restored).ok());
  EXPECT_NE(restored.GetSample("lineitem"), nullptr);
}

}  // namespace
}  // namespace stats
}  // namespace robustqo
