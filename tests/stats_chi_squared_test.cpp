#include "stats/chi_squared.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace hdhash {
namespace {

TEST(ChiSquaredStatisticTest, PerfectlyUniformIsZero) {
  const std::vector<std::uint64_t> counts{100, 100, 100, 100};
  EXPECT_DOUBLE_EQ(chi_squared_statistic_uniform(counts), 0.0);
}

TEST(ChiSquaredStatisticTest, HandComputedExample) {
  // counts {10, 20, 30}: E = 20; chi2 = (100 + 0 + 100)/20 = 10.
  const std::vector<std::uint64_t> counts{10, 20, 30};
  EXPECT_DOUBLE_EQ(chi_squared_statistic_uniform(counts), 10.0);
}

TEST(ChiSquaredStatisticTest, SingleBinIsZero) {
  const std::vector<std::uint64_t> counts{42};
  EXPECT_DOUBLE_EQ(chi_squared_statistic_uniform(counts), 0.0);
}

TEST(ChiSquaredStatisticTest, AllMassInOneBin) {
  // counts {N, 0}: E = N/2; chi2 = 2 * (N/2)^2 / (N/2) = N.
  const std::vector<std::uint64_t> counts{1000, 0};
  EXPECT_DOUBLE_EQ(chi_squared_statistic_uniform(counts), 1000.0);
}

TEST(ChiSquaredStatisticTest, EmptyOrZeroTotalThrows) {
  EXPECT_THROW(chi_squared_statistic_uniform({}), precondition_error);
  const std::vector<std::uint64_t> zeros{0, 0};
  EXPECT_THROW(chi_squared_statistic_uniform(zeros), precondition_error);
}

TEST(ChiSquaredStatisticTest, PerBinExpectation) {
  // A 1 : 3 weighted pool over 40 requests: E = {10, 30}; observed
  // {20, 20} gives chi2 = 100/10 + 100/30.
  const std::vector<std::uint64_t> observed{20, 20};
  const std::vector<double> expected{10.0, 30.0};
  EXPECT_DOUBLE_EQ(chi_squared_statistic(observed, expected),
                   100.0 / 10.0 + 100.0 / 30.0);
  const std::vector<double> short_expected{10.0};
  EXPECT_THROW(chi_squared_statistic(observed, short_expected),
               precondition_error);
}

TEST(ChiSquaredSurvivalTest, MatchesCriticalValueTables) {
  // Standard critical values at alpha = 0.05.
  EXPECT_NEAR(chi_squared_survival(3.841, 1), 0.05, 1e-3);
  EXPECT_NEAR(chi_squared_survival(5.991, 2), 0.05, 1e-3);
  EXPECT_NEAR(chi_squared_survival(18.307, 10), 0.05, 1e-3);
}

TEST(ChiSquaredSurvivalTest, TwoDofIsExponential) {
  for (const double x : {0.5, 2.0, 8.0}) {
    EXPECT_NEAR(chi_squared_survival(x, 2), std::exp(-x / 2.0), 1e-12);
  }
}

TEST(ChiSquaredSurvivalTest, ZeroStatisticIsCertain) {
  EXPECT_DOUBLE_EQ(chi_squared_survival(0.0, 5), 1.0);
}

TEST(ChiSquaredSurvivalTest, InvalidArgumentsThrow) {
  EXPECT_THROW(chi_squared_survival(-1.0, 2), precondition_error);
  EXPECT_THROW(chi_squared_survival(1.0, 0), precondition_error);
}

TEST(ChiSquaredUniformTest, FullResultFields) {
  const std::vector<std::uint64_t> counts{50, 50, 50, 50, 50};
  const auto result = chi_squared_uniform(counts);
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  EXPECT_DOUBLE_EQ(result.degrees_of_freedom, 4.0);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(ChiSquaredUniformTest, SkewedCountsRejectUniformity) {
  const std::vector<std::uint64_t> counts{400, 100, 100, 100, 100, 100,
                                          100, 100, 100, 100};
  const auto result = chi_squared_uniform(counts);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(ChiSquaredUniformTest, PlausiblyUniformSampleAccepted) {
  const std::vector<std::uint64_t> counts{98, 105, 102, 95, 100};
  EXPECT_GT(chi_squared_uniform(counts).p_value, 0.5);
}

}  // namespace
}  // namespace hdhash
