#include "exp/uniformity.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "emu/generator.hpp"
#include "hashing/splitmix_hash.hpp"
#include "stats/chi_squared.hpp"
#include "util/require.hpp"

namespace hdhash {

std::vector<uniformity_point> run_uniformity(std::string_view algorithm,
                                             const uniformity_config& config,
                                             const table_options& options) {
  std::vector<uniformity_point> series;
  for (const std::size_t servers : config.server_counts) {
    table_options opts = options;
    if (opts.hd.capacity <= servers) {  // keep n > k
      opts.hd.capacity = 2 * servers;
    }
    opts.hd.slot_cache = true;  // exact memoization; see robustness.cpp

    auto table = make_table(algorithm, opts);
    workload_config workload;
    workload.initial_servers = servers;
    workload.seed = config.seed;
    const generator gen(workload);
    const auto server_ids = gen.initial_server_ids();
    for (const std::uint64_t id : server_ids) {
      table->join(id);
    }
    std::unordered_map<server_id, std::size_t> bin_of;
    bin_of.reserve(server_ids.size());
    for (std::size_t i = 0; i < server_ids.size(); ++i) {
      bin_of.emplace(server_ids[i], i);
    }

    std::vector<std::uint64_t> request_ids;
    request_ids.reserve(config.requests);
    xoshiro256 req_rng(config.seed ^ 0xc0ffee);
    for (std::size_t i = 0; i < config.requests; ++i) {
      request_ids.push_back(splitmix_hash::mix(req_rng()));
    }

    for (const std::size_t flips : config.bit_flip_levels) {
      const std::size_t trials = flips == 0 ? 1 : config.trials;
      double sum_chi = 0.0;
      double sum_invalid = 0.0;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        bit_flip_injector injector(config.seed + 0x77 * (trial + 1) + flips);
        std::vector<flip_record> injected;
        if (flips > 0) {
          injected = injector.inject_random(*table, flips);
        }

        std::vector<server_id> answers(request_ids.size());
        table->lookup_batch(request_ids, answers);
        std::vector<std::uint64_t> counts(servers, 0);
        std::size_t invalid = 0;
        for (const server_id answer : answers) {
          const auto it = bin_of.find(answer);
          if (it == bin_of.end()) {
            ++invalid;  // corrupted identifier escaped the pool
          } else {
            ++counts[it->second];
          }
        }
        if (flips > 0) {
          bit_flip_injector::undo(*table, injected);
        }

        // Paper formula: E = |R| / |S| with |R| the total request count;
        // invalid answers therefore count against uniformity.
        const std::vector<double> expected(
            servers, static_cast<double>(config.requests) /
                         static_cast<double>(servers));
        sum_chi += chi_squared_statistic(counts, expected);
        sum_invalid += static_cast<double>(invalid) /
                       static_cast<double>(config.requests);
      }
      uniformity_point point;
      point.servers = servers;
      point.bit_flips = flips;
      point.chi_squared = sum_chi / static_cast<double>(trials);
      point.chi_over_dof =
          servers > 1
              ? point.chi_squared / static_cast<double>(servers - 1)
              : 0.0;
      point.invalid_fraction = sum_invalid / static_cast<double>(trials);
      series.push_back(point);
    }
  }
  return series;
}

std::vector<weighted_uniformity_point> run_weighted_uniformity(
    std::string_view algorithm, const weighted_uniformity_config& config,
    const table_options& options) {
  HDHASH_REQUIRE(!config.weight_cycle.empty(),
                 "weighted uniformity needs at least one weight");
  std::vector<weighted_uniformity_point> series;
  for (const std::size_t servers : config.server_counts) {
    // Weighted joins replicate hd circle slots, so capacity must cover
    // the *summed* effective weight, not just the server count.
    double total_weight = 0.0;
    std::vector<double> weights(servers);
    for (std::size_t i = 0; i < servers; ++i) {
      weights[i] = config.weight_cycle[i % config.weight_cycle.size()];
      total_weight += weights[i];
    }
    table_options opts = options;
    const auto slots = static_cast<std::size_t>(total_weight) + servers;
    if (opts.hd.capacity <= slots) {  // keep n > k
      opts.hd.capacity = 2 * slots;
    }
    opts.hd.slot_cache = true;  // exact memoization; see robustness.cpp

    auto table = make_table(algorithm, opts);
    workload_config workload;
    workload.initial_servers = servers;
    workload.seed = config.seed;
    const generator gen(workload);
    const auto server_ids = gen.initial_server_ids();
    std::unordered_map<server_id, std::size_t> bin_of;
    bin_of.reserve(server_ids.size());
    for (std::size_t i = 0; i < server_ids.size(); ++i) {
      table->join(server_ids[i], weights[i]);
      bin_of.emplace(server_ids[i], i);
    }

    std::vector<std::uint64_t> request_ids;
    request_ids.reserve(config.requests);
    xoshiro256 req_rng(config.seed ^ 0xc0ffee);
    for (std::size_t i = 0; i < config.requests; ++i) {
      request_ids.push_back(splitmix_hash::mix(req_rng()));
    }
    std::vector<server_id> answers(request_ids.size());
    table->lookup_batch(request_ids, answers);
    std::vector<std::uint64_t> counts(servers, 0);
    for (const server_id answer : answers) {
      const auto it = bin_of.find(answer);
      HDHASH_REQUIRE(it != bin_of.end(),
                     "clean weighted lookup escaped the pool");
      ++counts[it->second];
    }

    weighted_uniformity_point point;
    point.servers = servers;
    std::vector<double> expected(servers);
    for (std::size_t i = 0; i < servers; ++i) {
      expected[i] =
          static_cast<double>(config.requests) * weights[i] / total_weight;
    }
    point.chi_squared = chi_squared_statistic(counts, expected);
    const double max_weight =
        *std::max_element(weights.begin(), weights.end());
    for (std::size_t i = 0; i < servers; ++i) {
      const double diff = static_cast<double>(counts[i]) - expected[i];
      point.max_share_error = std::max(
          point.max_share_error,
          std::abs(diff) / static_cast<double>(config.requests));
      if (weights[i] == max_weight) {
        point.heavy_share += static_cast<double>(counts[i]) /
                             static_cast<double>(config.requests);
        point.heavy_share_expected += weights[i] / total_weight;
      }
    }
    point.chi_over_dof =
        servers > 1 ? point.chi_squared / static_cast<double>(servers - 1)
                    : 0.0;
    series.push_back(point);
  }
  return series;
}

}  // namespace hdhash
