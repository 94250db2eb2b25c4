/// \file chi_squared.hpp
/// \brief Pearson's χ² goodness-of-fit statistic — against the uniform
/// distribution, the metric of the paper's Figure 6.
///
/// The paper measures the discrepancy between the observed requests-per-
/// server distribution and the uniform distribution as
///   χ² = Σ_i (R(s_i) − E)² / E,   E = |R| / |S|.
/// Weighted pools use the same sum with a per-bin expectation E_i.
#pragma once

#include <cstdint>
#include <span>

namespace hdhash {

/// Result of a χ² goodness-of-fit evaluation.
struct chi_squared_result {
  double statistic = 0.0;        ///< Pearson's χ² statistic.
  double degrees_of_freedom = 0; ///< bins − 1.
  double p_value = 1.0;          ///< P(X ≥ statistic) under H0 (uniformity).
};

/// Pearson's statistic Σ_i (observed_i − expected_i)² / expected_i,
/// summed in bin order.  \pre observed.size() == expected.size().
double chi_squared_statistic(std::span<const std::uint64_t> observed,
                             std::span<const double> expected);

/// χ² of observed counts against the uniform expectation E = total/bins.
/// \pre counts is non-empty and the total count is positive.
chi_squared_result chi_squared_uniform(std::span<const std::uint64_t> counts);

/// Pearson statistic only (the quantity plotted in Fig. 6).
double chi_squared_statistic_uniform(std::span<const std::uint64_t> counts);

/// Upper-tail probability of a χ² variate: P(X ≥ x) with k degrees of
/// freedom.  \pre k > 0, x >= 0.
double chi_squared_survival(double x, double k);

}  // namespace hdhash
