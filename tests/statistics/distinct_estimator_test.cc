#include "statistics/distinct_estimator.h"

#include <gtest/gtest.h>

#include "storage/table.h"
#include "util/rng.h"

namespace robustqo {
namespace stats {
namespace {

TEST(FrequencyProfileTest, CountsFrequencies) {
  // values: 1 once, 2 twice, 3 three times.
  SampleFrequencyProfile p = ProfileValues({1, 2, 2, 3, 3, 3});
  EXPECT_EQ(p.sample_size, 6u);
  EXPECT_EQ(p.distinct_in_sample, 3u);
  EXPECT_EQ(p.f(1), 1u);
  EXPECT_EQ(p.f(2), 1u);
  EXPECT_EQ(p.f(3), 1u);
  EXPECT_EQ(p.f(4), 0u);
}

TEST(FrequencyProfileTest, EmptyInput) {
  SampleFrequencyProfile p = ProfileValues({});
  EXPECT_EQ(p.sample_size, 0u);
  EXPECT_EQ(p.distinct_in_sample, 0u);
  EXPECT_EQ(EstimateDistinct(p, 1000), 0.0);
}

TEST(DistinctEstimatorTest, AllUniqueSample) {
  // 100 unique values out of a 10000-row population: GEE scales f1 by
  // sqrt(N/n) = 10 -> estimate 1000.
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 100; ++i) values.push_back(i);
  SampleFrequencyProfile p = ProfileValues(values);
  EXPECT_NEAR(EstimateDistinct(p, 10000, DistinctMethod::kGee), 1000.0,
              1e-9);
  EXPECT_NEAR(EstimateDistinct(p, 10000, DistinctMethod::kNaiveScaleUp),
              10000.0, 1e-9);
}

TEST(DistinctEstimatorTest, AllDuplicatesSample) {
  // A single value repeated: every estimator should answer ~1.
  std::vector<int64_t> values(200, 7);
  SampleFrequencyProfile p = ProfileValues(values);
  for (auto method : {DistinctMethod::kGee, DistinctMethod::kChao}) {
    EXPECT_NEAR(EstimateDistinct(p, 100000, method), 1.0, 1e-9);
  }
  // Naive scale-up is exactly the estimator the literature improves on:
  // it blindly multiplies by N/n and lands at 500 here.
  EXPECT_NEAR(EstimateDistinct(p, 100000, DistinctMethod::kNaiveScaleUp),
              500.0, 1e-9);
}

TEST(DistinctEstimatorTest, ClampedToValidRange) {
  SampleFrequencyProfile p = ProfileValues({1, 2, 3});
  // Estimates can never drop below observed distinct or exceed N.
  EXPECT_GE(EstimateDistinct(p, 4, DistinctMethod::kGee), 3.0);
  EXPECT_LE(EstimateDistinct(p, 4, DistinctMethod::kNaiveScaleUp), 4.0);
}

TEST(DistinctEstimatorTest, SampleLargerThanPopulation) {
  // 500 with-replacement draws from a 25-row table with 5 distinct values:
  // every value repeats, and no estimate leaves [d, N] = [5, 25].
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 500; ++i) values.push_back(i % 5);
  const SampleFrequencyProfile p = ProfileValues(values);
  for (DistinctMethod method :
       {DistinctMethod::kGee, DistinctMethod::kChao,
        DistinctMethod::kNaiveScaleUp}) {
    const double estimate = EstimateDistinct(p, 25, method);
    EXPECT_GE(estimate, 5.0);
    EXPECT_LE(estimate, 25.0);
  }
  EXPECT_DOUBLE_EQ(EstimateDistinct(p, 25, DistinctMethod::kGee), 5.0);
}

class DistinctAccuracy
    : public ::testing::TestWithParam<std::tuple<int64_t, DistinctMethod>> {};

TEST_P(DistinctAccuracy, RecoversTrueDistinctWithinFactorTwo) {
  const auto [true_distinct, method] = GetParam();
  const uint64_t population = 100000;
  const size_t sample_size = 2000;
  Rng rng(static_cast<uint64_t>(true_distinct) * 31 + 7);
  std::vector<int64_t> sample;
  sample.reserve(sample_size);
  // Uniform value distribution over `true_distinct` values.
  for (size_t i = 0; i < sample_size; ++i) {
    sample.push_back(rng.NextInRange(0, true_distinct - 1));
  }
  SampleFrequencyProfile p = ProfileValues(sample);
  const double est = EstimateDistinct(p, population, method);
  EXPECT_GT(est, 0.4 * static_cast<double>(true_distinct));
  EXPECT_LT(est, 3.0 * static_cast<double>(true_distinct));
}

INSTANTIATE_TEST_SUITE_P(
    UniformValues, DistinctAccuracy,
    ::testing::Combine(::testing::Values<int64_t>(100, 500, 1000),
                       ::testing::Values(DistinctMethod::kGee,
                                         DistinctMethod::kChao)));

TEST(DistinctEstimatorTest, ProfileFromSampleColumn) {
  storage::Table t("t", storage::Schema({{"k", storage::DataType::kInt64},
                                         {"s", storage::DataType::kString}}));
  for (int64_t i = 0; i < 1000; ++i) {
    t.AppendRow({storage::Value::Int64(i % 50), storage::Value::String("x")});
  }
  Rng rng(3);
  TableSample sample(t, 400, SamplingMode::kWithReplacement, &rng);
  auto profile = ProfileSampleColumn(sample, "k");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().sample_size, 400u);
  EXPECT_LE(profile.value().distinct_in_sample, 50u);
  EXPECT_GE(profile.value().distinct_in_sample, 40u);
  // Strings unsupported; unknown column is NotFound.
  EXPECT_FALSE(ProfileSampleColumn(sample, "s").ok());
  EXPECT_FALSE(ProfileSampleColumn(sample, "nope").ok());
}

}  // namespace
}  // namespace stats
}  // namespace robustqo
