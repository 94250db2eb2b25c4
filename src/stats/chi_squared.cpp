#include "stats/chi_squared.hpp"

#include <vector>

#include "stats/gamma.hpp"
#include "util/require.hpp"

namespace hdhash {

double chi_squared_statistic(std::span<const std::uint64_t> observed,
                             std::span<const double> expected) {
  HDHASH_REQUIRE(observed.size() == expected.size(),
                 "need one expectation per bin");
  double statistic = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double diff = static_cast<double>(observed[i]) - expected[i];
    statistic += diff * diff / expected[i];
  }
  return statistic;
}

double chi_squared_statistic_uniform(std::span<const std::uint64_t> counts) {
  HDHASH_REQUIRE(!counts.empty(), "need at least one bin");
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    total += c;
  }
  HDHASH_REQUIRE(total > 0, "need at least one observation");
  const std::vector<double> expected(
      counts.size(),
      static_cast<double>(total) / static_cast<double>(counts.size()));
  return chi_squared_statistic(counts, expected);
}

double chi_squared_survival(double x, double k) {
  HDHASH_REQUIRE(k > 0.0, "degrees of freedom must be positive");
  HDHASH_REQUIRE(x >= 0.0, "statistic must be non-negative");
  return regularized_gamma_q(k / 2.0, x / 2.0);
}

chi_squared_result chi_squared_uniform(std::span<const std::uint64_t> counts) {
  chi_squared_result result;
  result.statistic = chi_squared_statistic_uniform(counts);
  result.degrees_of_freedom = static_cast<double>(counts.size()) - 1.0;
  result.p_value = result.degrees_of_freedom > 0.0
                       ? chi_squared_survival(result.statistic,
                                              result.degrees_of_freedom)
                       : 1.0;
  return result;
}

}  // namespace hdhash
