/// Scenario × algorithm matrix driver: every cell populated, metrics
/// within their definitions (disruption bounded below by the measured
/// forced-move fraction), weighted compilation routed per algorithm,
/// a balance ceiling per algorithm, and determinism of everything
/// except wall timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exp/scenario_matrix.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

scenario_matrix_config small_config() {
  scenario_matrix_config config;
  config.tuning.phase_ticks = 24;
  config.tuning.base_rate = 12.0;
  config.tuning.servers = 16;
  config.tuning.rack_size = 4;
  config.tuning.seed = 5;
  config.options.hd.dimension = 1024;
  config.options.hd.capacity = 128;
  config.probes = 256;
  return config;
}

TEST(ScenarioMatrixTest, EveryPlaybookTimesEveryAlgorithmGetsACell) {
  const std::vector<scenario_cell> cells = run_scenario_matrix(small_config());
  const auto playbooks = scenario_names();
  const auto algorithms = all_algorithms();
  ASSERT_EQ(cells.size(), playbooks.size() * algorithms.size());

  std::set<std::pair<std::string, std::string>> seen;
  for (const scenario_cell& cell : cells) {
    seen.insert({cell.playbook, cell.algorithm});
    EXPECT_GT(cell.requests, 0u) << cell.playbook << "/" << cell.algorithm;
    EXPECT_GE(cell.disruption, 0.0);
    EXPECT_LE(cell.disruption, 1.0);
    // Forced moves are a subset of observed moves: a probe whose server
    // left must remap, and one now on a joiner cannot have been there.
    EXPECT_GE(cell.disruption, cell.disruption_minimum - 1e-12)
        << cell.playbook << "/" << cell.algorithm;
    EXPECT_GE(cell.load_chi_over_dof, 0.0);
    // The worst sample can never undercut the mean of the samples.
    EXPECT_GE(cell.worst_chi_over_dof, cell.load_chi_over_dof - 1e-12);
    EXPECT_EQ(cell.weighted, algorithm_supports_weights(cell.algorithm));
  }
  EXPECT_EQ(seen.size(), cells.size());  // no duplicate cells
}

TEST(ScenarioMatrixTest, BalanceStaysUnderEachAlgorithmsCeiling) {
  // Worst phase-end χ²/dof of each algorithm over the six playbooks at
  // small_config(), as measured when the ceilings were set (the matrix
  // is deterministic).  Balance may improve freely; a change that lets
  // an algorithm's worst case grow by half again fails here.
  const std::map<std::string, double> measured = {
      {"bounded", 37.07},         {"consistent", 37.07},
      {"consistent-rank", 37.07}, {"hd", 7.33},
      {"hd-hierarchical", 53.16}, {"jump", 1.69},
      {"maglev", 1.65},           {"modular", 1.45},
      {"rendezvous", 1.47},       {"weighted-rendezvous", 1.47}};
  std::map<std::string, double> worst;
  for (const scenario_cell& cell : run_scenario_matrix(small_config())) {
    worst[cell.algorithm] =
        std::max(worst[cell.algorithm], cell.worst_chi_over_dof);
  }
  ASSERT_EQ(worst.size(), measured.size());
  for (const auto& [algorithm, chi_over_dof] : worst) {
    EXPECT_LT(chi_over_dof, 1.5 * measured.at(algorithm)) << algorithm;
  }
}

TEST(ScenarioMatrixTest, SteadyPlaybookHasNoEpisodesAndNoRecoveryClock) {
  scenario_matrix_config config = small_config();
  config.playbooks = {"steady"};
  config.algorithms = {"hd", "modular"};
  const std::vector<scenario_cell> cells = run_scenario_matrix(config);
  ASSERT_EQ(cells.size(), 2u);
  for (const scenario_cell& cell : cells) {
    EXPECT_EQ(cell.membership_episodes, 0u);
    EXPECT_DOUBLE_EQ(cell.disruption, 0.0);
    EXPECT_DOUBLE_EQ(cell.recovery_ticks, -1.0);  // nothing disrupted
    EXPECT_TRUE(cell.recovered);
    EXPECT_GT(cell.load_chi_over_dof, 0.0);  // phase-end sample taken
  }
}

TEST(ScenarioMatrixTest, DisruptivePlaybooksMeasureEpisodesAndRecovery) {
  scenario_matrix_config config = small_config();
  config.playbooks = {"rack-failure", "rolling-upgrade"};
  config.algorithms = {"consistent", "hd"};
  const std::vector<scenario_cell> cells = run_scenario_matrix(config);
  ASSERT_EQ(cells.size(), 4u);
  for (const scenario_cell& cell : cells) {
    EXPECT_GT(cell.membership_episodes, 0u)
        << cell.playbook << "/" << cell.algorithm;
    EXPECT_GT(cell.disruption_minimum, 0.0)
        << cell.playbook << "/" << cell.algorithm;
    // Both playbooks carry a disruptive marker, so a recovery time is
    // always reported (full remaining run when never recovered).
    EXPECT_GE(cell.recovery_ticks, 0.0)
        << cell.playbook << "/" << cell.algorithm;
  }
}

TEST(ScenarioMatrixTest, MatrixIsDeterministicModuloTiming) {
  scenario_matrix_config config = small_config();
  config.playbooks = {"grey-server", "diurnal"};
  const std::vector<scenario_cell> a = run_scenario_matrix(config);
  const std::vector<scenario_cell> b = run_scenario_matrix(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].playbook, b[i].playbook);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].weighted, b[i].weighted);
    EXPECT_EQ(a[i].requests, b[i].requests);
    EXPECT_EQ(a[i].joins, b[i].joins);
    EXPECT_EQ(a[i].leaves, b[i].leaves);
    EXPECT_EQ(a[i].membership_episodes, b[i].membership_episodes);
    EXPECT_DOUBLE_EQ(a[i].disruption, b[i].disruption);
    EXPECT_DOUBLE_EQ(a[i].disruption_minimum, b[i].disruption_minimum);
    EXPECT_DOUBLE_EQ(a[i].load_chi_over_dof, b[i].load_chi_over_dof);
    EXPECT_DOUBLE_EQ(a[i].worst_chi_over_dof, b[i].worst_chi_over_dof);
    EXPECT_DOUBLE_EQ(a[i].recovery_ticks, b[i].recovery_ticks);
    EXPECT_EQ(a[i].recovered, b[i].recovered);
  }
}

TEST(ScenarioMatrixTest, RejectsDegenerateMeasurementConfigs) {
  scenario_matrix_config tiny_probes = small_config();
  tiny_probes.probes = 4;
  EXPECT_THROW(run_scenario_matrix(tiny_probes), precondition_error);

  scenario_matrix_config bad_threshold = small_config();
  bad_threshold.recovery_chi_over_dof = 0.0;
  EXPECT_THROW(run_scenario_matrix(bad_threshold), precondition_error);

  scenario_matrix_config bad_playbook = small_config();
  bad_playbook.playbooks = {"no-such-playbook"};
  EXPECT_THROW(run_scenario_matrix(bad_playbook), precondition_error);

  scenario_matrix_config bad_algorithm = small_config();
  bad_algorithm.algorithms = {"no-such-algorithm"};
  EXPECT_THROW(run_scenario_matrix(bad_algorithm), precondition_error);
}

}  // namespace
}  // namespace hdhash
