#include "core/circular.hpp"

#include <string>

#include <gtest/gtest.h>

#include "hdc/similarity.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

using hdc::cosine;
using hdc::flip_policy;
using hdc::hamming_distance;

TEST(CircularDistanceTest, BasicGeometry) {
  EXPECT_EQ(circular_distance(0, 0, 12), 0u);
  EXPECT_EQ(circular_distance(0, 1, 12), 1u);
  EXPECT_EQ(circular_distance(1, 0, 12), 1u);
  EXPECT_EQ(circular_distance(0, 6, 12), 6u);   // antipode
  EXPECT_EQ(circular_distance(0, 11, 12), 1u);  // wraps
  EXPECT_EQ(circular_distance(2, 9, 12), 5u);
}

struct circle_case {
  std::size_t count;
  std::size_t dim;
};

class CircularSetFreshTest : public ::testing::TestWithParam<circle_case> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, CircularSetFreshTest,
    ::testing::Values(circle_case{2, 1000}, circle_case{4, 1000},
                      circle_case{12, 10'000}, circle_case{64, 10'000},
                      circle_case{128, 4096}, circle_case{1024, 10'000}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.count) + "_d" +
             std::to_string(info.param.dim);
    });

TEST_P(CircularSetFreshTest, SizeAndDimension) {
  const auto [count, dim] = GetParam();
  xoshiro256 rng(1);
  const auto set = circular_set(count, dim, rng);
  ASSERT_EQ(set.size(), count);
  for (const auto& hv : set) {
    EXPECT_EQ(hv.dim(), dim);
  }
}

TEST_P(CircularSetFreshTest, ProfileIsExactlyCircular) {
  // The defining property (fresh_bits makes it exact):
  //   hamming(c_i, c_j) == floor(d/n) * circular_distance(i, j, n).
  const auto [count, dim] = GetParam();
  xoshiro256 rng(2);
  const auto set = circular_set(count, dim, rng);
  const std::size_t weight = dim / count;
  for (std::size_t i = 0; i < count; ++i) {
    // Sampling j keeps the O(n^2) check tractable for the 1024 case.
    for (std::size_t j = i; j < count; j += (count > 64 ? 37 : 1)) {
      EXPECT_EQ(hamming_distance(set[i], set[j]),
                weight * circular_distance(i, j, count))
          << "pair " << i << "," << j;
    }
  }
}

TEST_P(CircularSetFreshTest, NoDiscontinuityAtWrapAround) {
  // The level-hypervector flaw the construction removes: the last and
  // first vectors must be as similar as any adjacent pair.
  const auto [count, dim] = GetParam();
  xoshiro256 rng(3);
  const auto set = circular_set(count, dim, rng);
  const std::size_t adjacent = hamming_distance(set[0], set[1]);
  EXPECT_EQ(hamming_distance(set[count - 1], set[0]), adjacent);
}

TEST_P(CircularSetFreshTest, AntipodeQuasiOrthogonal) {
  const auto [count, dim] = GetParam();
  if (count < 4) {
    GTEST_SKIP() << "antipode degenerate for n < 4";
  }
  xoshiro256 rng(4);
  const auto set = circular_set(count, dim, rng);
  // Antipodal distance = (n/2) * floor(d/n) ~= d/2 -> cosine ~= 0.
  EXPECT_NEAR(cosine(set[0], set[count / 2]), 0.0, 0.1);
}

TEST(CircularSetTest, DeterministicPerSeed) {
  xoshiro256 a(7);
  xoshiro256 b(7);
  EXPECT_EQ(circular_set(16, 2048, a), circular_set(16, 2048, b));
}

TEST(CircularSetTest, DifferentSeedsDiffer) {
  xoshiro256 a(7);
  xoshiro256 b(8);
  EXPECT_NE(circular_set(16, 2048, a), circular_set(16, 2048, b));
}

TEST(CircularSetTest, OddCardinalityFootnote) {
  // Odd n: generate 2n and keep every other (paper footnote 1).
  xoshiro256 rng(9);
  const std::size_t count = 13;
  const std::size_t dim = 10'000;
  const auto set = circular_set(count, dim, rng);
  ASSERT_EQ(set.size(), count);
  // Taking alternate members of a circle of 26 preserves circular
  // structure with doubled per-step weight — exactly, for every pair,
  // which is what lets hd_table price a join by geometry on odd circles.
  const std::size_t weight = 2 * (dim / (2 * count));
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_EQ(hamming_distance(set[i], set[j]),
                weight * circular_distance(i, j, count))
          << "pair " << i << "," << j;
    }
  }
}

TEST(CircularSetTest, IndependentPolicyApproximatesCircle) {
  // The literal Algorithm 1: profile monotone up to collisions; the
  // antipodal similarity saturates around cosine 1 - (1 - e^-1) = 0.37
  // rather than reaching 0.
  xoshiro256 rng(10);
  const std::size_t count = 64;
  const std::size_t dim = 10'000;
  const auto set = circular_set(count, dim, rng, flip_policy::independent);
  // Adjacent distance is exact (single transformation, no collisions).
  EXPECT_EQ(hamming_distance(set[0], set[1]), dim / count);
  // Wrap-around still continuous.
  EXPECT_EQ(hamming_distance(set[count - 1], set[0]), dim / count);
  const double antipodal = cosine(set[0], set[count / 2]);
  EXPECT_GT(antipodal, 0.2);  // saturation: never reaches orthogonality
  EXPECT_LT(antipodal, 0.55);
}

TEST(CircularSetTest, SimilarityDecaysOutToAntipode) {
  xoshiro256 rng(11);
  const auto set = circular_set(32, 10'000, rng);
  std::size_t previous = 0;
  for (std::size_t j = 1; j <= 16; ++j) {
    const std::size_t d = hamming_distance(set[0], set[j]);
    EXPECT_GT(d, previous);
    previous = d;
  }
  // And rises again symmetrically on the way back.
  for (std::size_t j = 17; j < 32; ++j) {
    const std::size_t d = hamming_distance(set[0], set[j]);
    EXPECT_LT(d, previous);
    previous = d;
  }
}

TEST(CircularSetTest, TooFewNodesThrows) {
  xoshiro256 rng(12);
  EXPECT_THROW(circular_set(1, 100, rng), precondition_error);
}

TEST(CircularSetTest, DimensionSmallerThanCircleThrows) {
  xoshiro256 rng(13);
  // weight = dim / count == 0 is rejected.
  EXPECT_THROW(circular_set(128, 100, rng), precondition_error);
}

TEST(CircularSetTest, MinimalCircleOfTwo) {
  xoshiro256 rng(14);
  const auto set = circular_set(2, 1000, rng);
  ASSERT_EQ(set.size(), 2u);
  // One forward step of weight d/2: the pair is quasi-orthogonal.
  EXPECT_EQ(hamming_distance(set[0], set[1]), 500u);
}

}  // namespace
}  // namespace hdhash
