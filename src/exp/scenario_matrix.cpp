#include "exp/scenario_matrix.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "emu/emulator.hpp"
#include "hashing/splitmix_hash.hpp"
#include "stats/chi_squared.hpp"
#include "util/require.hpp"

namespace hdhash {

namespace {

/// Probe χ² per degree of freedom against the weight-proportional
/// expectation E_i = probes · w_i / Σw (1 ≈ ideally balanced).
double chi_over_dof(const std::vector<server_id>& assignment,
                    const std::unordered_map<server_id, double>& weights) {
  if (weights.size() <= 1) {
    return 0.0;  // one server holds everything by definition
  }
  double total_weight = 0.0;
  for (const auto& [id, weight] : weights) {
    total_weight += weight;
  }
  std::unordered_map<server_id, std::uint64_t> counts;
  counts.reserve(weights.size());
  for (const server_id server : assignment) {
    ++counts[server];
  }
  // One bin per server, in the weight map's order.
  const double probes = static_cast<double>(assignment.size());
  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  observed.reserve(weights.size());
  expected.reserve(weights.size());
  for (const auto& [id, weight] : weights) {
    const auto it = counts.find(id);
    observed.push_back(it == counts.end() ? 0 : it->second);
    expected.push_back(probes * weight / total_weight);
  }
  return chi_squared_statistic(observed, expected) /
         static_cast<double>(weights.size() - 1);
}

/// One in-flight recovery measurement, anchored at a disruptive marker.
struct recovery_clock {
  std::size_t start_tick = 0;
};

scenario_cell run_cell(const compiled_scenario& compiled,
                       const std::string& algorithm, bool weighted,
                       const scenario_matrix_config& config) {
  table_options options = config.options;
  // Long membership histories: publish the hd accelerator steady state
  // (incrementally maintained, bit-identical to cold decoding) and size
  // the circle above the scenario's peak pool weight.
  options.hd.slot_cache = true;
  const std::size_t needed = 2 * (compiled.max_pool_weight + 2);
  if (options.hd.capacity < needed) {
    options.hd.capacity = needed;
  }
  auto table = make_table(algorithm, options);

  scenario_cell cell;
  cell.playbook = compiled.name;
  cell.algorithm = algorithm;
  cell.weighted = weighted;
  cell.requests = compiled.requests;
  cell.joins = compiled.joins;
  cell.leaves = compiled.leaves;

  // Fixed probe set, identical for every cell: mixed ids spanning the
  // request-id space (probe assignments, not live traffic, are what
  // the disruption and balance sweeps re-resolve).
  std::vector<request_id> probes;
  probes.reserve(config.probes);
  for (std::size_t i = 0; i < config.probes; ++i) {
    probes.push_back(splitmix_hash::mix(0x960BE5EEDULL + i));
  }

  // Apply the initial join burst, then baseline the probe assignment.
  const std::size_t first_phase_event = compiled.phases.front().first_event;
  std::unordered_map<server_id, double> weights;
  for (std::size_t i = 0; i < first_phase_event; ++i) {
    const event& e = compiled.events[i];
    table->join(e.id, e.weight);
    weights[e.id] = table->weight(e.id);
  }
  std::vector<server_id> prev_assign = table->lookup_batch(probes);
  std::vector<server_id> assign(probes.size());

  std::size_t event_cursor = first_phase_event;
  std::size_t marker_cursor = 0;
  std::size_t phase_cursor = 0;
  std::vector<recovery_clock> clocks;
  double recovery_sum = 0.0;
  std::size_t recovery_samples = 0;
  double disruption_sum = 0.0;
  double minimum_sum = 0.0;
  double phase_chi_sum = 0.0;
  std::size_t phase_chi_samples = 0;
  std::vector<request_id> tick_requests;
  std::vector<server_id> tick_answers;
  std::unordered_set<server_id> joined;
  std::unordered_set<server_id> left;

  for (std::size_t tick = 0; tick < compiled.total_ticks; ++tick) {
    // Disruptive markers anchor their recovery clocks at this tick.
    while (marker_cursor < compiled.markers.size() &&
           compiled.markers[marker_cursor].tick == tick) {
      if (compiled.markers[marker_cursor].disruptive) {
        clocks.push_back(recovery_clock{tick});
      }
      ++marker_cursor;
    }

    // Membership first (compilation emits a tick's churn and weight
    // events before its arrivals), then the tick's request batch.
    joined.clear();
    left.clear();
    tick_requests.clear();
    bool membership_changed = false;
    while (event_cursor < compiled.events.size() &&
           compiled.event_ticks[event_cursor] == tick) {
      const event& e = compiled.events[event_cursor++];
      switch (e.kind) {
        case event_kind::join:
          table->join(e.id, e.weight);
          weights[e.id] = table->weight(e.id);
          membership_changed = true;
          // A leave+rejoin within the tick (grey decay re-weighting)
          // keeps the server in the pool: probes staying on it are not
          // forced moves, so it joins neither census set.
          if (left.erase(e.id) == 0) {
            joined.insert(e.id);
          }
          break;
        case event_kind::leave:
          table->leave(e.id);
          weights.erase(e.id);
          membership_changed = true;
          if (joined.erase(e.id) == 0) {
            left.insert(e.id);
          }
          break;
        case event_kind::request:
          tick_requests.push_back(e.id);
          break;
      }
    }

    if (membership_changed) {
      ++cell.membership_episodes;
      table->lookup_batch(probes, assign);
      std::size_t changed = 0;
      std::size_t forced = 0;
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (assign[i] != prev_assign[i]) {
          ++changed;
        }
        if (left.count(prev_assign[i]) != 0 || joined.count(assign[i]) != 0) {
          ++forced;  // had to move whatever the algorithm does
        }
      }
      const double n = static_cast<double>(probes.size());
      disruption_sum += static_cast<double>(changed) / n;
      minimum_sum += static_cast<double>(forced) / n;
      std::swap(prev_assign, assign);

      const double chi = chi_over_dof(prev_assign, weights);
      cell.worst_chi_over_dof = std::max(cell.worst_chi_over_dof, chi);
      if (chi <= config.recovery_chi_over_dof) {
        for (const recovery_clock& clock : clocks) {
          recovery_sum += static_cast<double>(tick - clock.start_tick);
          ++recovery_samples;
        }
        clocks.clear();
      }
    }

    if (!tick_requests.empty()) {
      tick_answers.resize(tick_requests.size());
      const std::int64_t start = timing_now_ns(timing_mode::wall);
      table->lookup_batch(tick_requests, tick_answers);
      cell.avg_request_ns +=
          static_cast<double>(timing_now_ns(timing_mode::wall) - start);
    }

    // Phase-end balance sample.
    if (tick + 1 == compiled.phases[phase_cursor].end_tick) {
      table->lookup_batch(probes, assign);
      const double chi = chi_over_dof(assign, weights);
      phase_chi_sum += chi;
      ++phase_chi_samples;
      cell.worst_chi_over_dof = std::max(cell.worst_chi_over_dof, chi);
      ++phase_cursor;
    }
  }

  // Markers that never recovered count their full remaining run.
  for (const recovery_clock& clock : clocks) {
    recovery_sum +=
        static_cast<double>(compiled.total_ticks - clock.start_tick);
    ++recovery_samples;
    cell.recovered = false;
  }

  if (cell.membership_episodes > 0) {
    disruption_sum /= static_cast<double>(cell.membership_episodes);
    minimum_sum /= static_cast<double>(cell.membership_episodes);
  }
  cell.disruption = disruption_sum;
  cell.disruption_minimum = minimum_sum;
  cell.load_chi_over_dof =
      phase_chi_samples > 0
          ? phase_chi_sum / static_cast<double>(phase_chi_samples)
          : 0.0;
  cell.recovery_ticks =
      recovery_samples > 0
          ? recovery_sum / static_cast<double>(recovery_samples)
          : -1.0;
  cell.avg_request_ns =
      cell.requests > 0
          ? cell.avg_request_ns / static_cast<double>(cell.requests)
          : 0.0;
  return cell;
}

}  // namespace

std::vector<scenario_cell> run_scenario_matrix(
    const scenario_matrix_config& config) {
  HDHASH_REQUIRE(config.probes >= 16, "probe set too small to measure");
  HDHASH_REQUIRE(config.recovery_chi_over_dof > 0.0,
                 "recovery threshold must be positive");
  std::vector<std::string> playbooks = config.playbooks;
  if (playbooks.empty()) {
    for (const std::string_view name : scenario_names()) {
      playbooks.emplace_back(name);
    }
  }
  std::vector<std::string> algorithms = config.algorithms;
  if (algorithms.empty()) {
    for (const std::string_view name : all_algorithms()) {
      algorithms.emplace_back(name);
    }
  }

  std::vector<scenario_cell> cells;
  cells.reserve(playbooks.size() * algorithms.size());
  for (const std::string& playbook : playbooks) {
    const scenario_config scenario = make_scenario(playbook, config.tuning);
    // Compile each row at most twice — the weighted stream for weight-
    // capable algorithms, the clamped (but otherwise identical) stream
    // for the rest — and share across the column axis.
    const compiled_scenario with_weights = compile_scenario(scenario, true);
    const compiled_scenario without_weights =
        compile_scenario(scenario, false);
    for (const std::string& algorithm : algorithms) {
      const bool weighted = algorithm_supports_weights(algorithm);
      cells.push_back(run_cell(weighted ? with_weights : without_weights,
                               algorithm, weighted, config));
    }
  }
  return cells;
}

}  // namespace hdhash
