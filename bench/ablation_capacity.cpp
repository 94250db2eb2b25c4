/// Ablation A2: circle capacity n relative to the pool size k.  The
/// paper only requires n > k.  A denser circle (small n/k) gives a
/// coarser request partition but a larger lattice step d/n; a sparser
/// circle resolves finer arcs at the price of smaller decode margins and
/// more hash-slot collisions between servers.
#include <cstdio>
#include <iostream>
#include <unordered_map>

#include "core/hd_table.hpp"
#include "emu/generator.hpp"
#include "exp/robustness.hpp"
#include "exp/uniformity.hpp"
#include "hashing/registry.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hdhash;
  constexpr std::size_t kServers = 256;
  std::printf("== Ablation A2: circle capacity (k = %zu, d = 10,000) ==\n\n",
              kServers);

  table_printer table({"n/k", "capacity", "step (bits)", "chi2/dof e=0",
                       "mismatch @10 flips", "starved servers"});
  for (const double ratio : {1.25, 1.5, 2.0, 4.0, 8.0, 16.0}) {
    const auto capacity =
        static_cast<std::size_t>(static_cast<double>(kServers) * ratio);
    table_options options;
    options.hd.capacity = capacity;

    // Uniformity at this capacity.
    uniformity_config uconfig;
    uconfig.server_counts = {kServers};
    uconfig.bit_flip_levels = {0};
    uconfig.requests = 50'000;
    const auto uniformity = run_uniformity("hd", uconfig, options);

    // Robustness at this capacity.
    robustness_config rconfig;
    rconfig.servers = kServers;
    rconfig.requests = 3000;
    rconfig.max_bit_flips = 10;
    rconfig.trials = 5;
    const auto sweep = run_mismatch_sweep("hd", rconfig, options);

    // Starved servers: slot collisions hand one server's traffic to the
    // tied smaller id, so count servers receiving zero requests.
    hd_table_config hd = options.hd;
    hd.slot_cache = true;
    hd_table probe(default_hash(), hd);
    workload_config workload;
    workload.initial_servers = kServers;
    const generator gen(workload);
    for (const auto id : gen.initial_server_ids()) {
      probe.join(id);
    }
    std::unordered_map<server_id, std::size_t> load;
    for (request_id r = 0; r < 50'000; ++r) {
      ++load[probe.lookup(r * 0x9e3779b97f4a7c15ULL)];
    }
    const std::size_t starved = kServers - load.size();

    table.add_row({format_double(ratio, 2), std::to_string(capacity),
                   std::to_string(probe.encoder().step_bits()),
                   format_double(uniformity[0].chi_over_dof, 2),
                   format_percent(sweep.back().mismatch_rate),
                   std::to_string(starved)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: n/k ~ 2-4 balances decode margin (larger step) against\n"
      "slot-collision starvation and load uniformity; the paper's setup\n"
      "(n > k, unspecified) sits in this regime.\n");
  return 0;
}
