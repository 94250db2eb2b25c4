/// Figure 5 reproduction: percentage of mismatched requests when a number
/// of bit errors (0..10) occur in the live memory of each hash table, for
/// several pool sizes.  Also reproduces the Section 1 headline: "With 512
/// servers and a 10-bit MCU, HD hashing is unaffected while rendezvous
/// and consistent hashing mismatch 4% and 12% of requests".
///
/// Consistent hashing appears twice: "consistent" resolves the clockwise
/// successor by bisection (production CPU code) and "consistent-rank" by
/// rank reduction (the data-parallel formulation matching the paper's
/// emulator); rank resolution is the configuration that reproduces the
/// paper's degradation magnitude (see DESIGN.md).
/// `--shards N` appends a sharded-emulator panel: the robustness
/// workload's request stream runs through 1..N shards (powers of two)
/// with every shard carrying a pristine shadow oracle — merged
/// mismatches must stay zero and the merged load histogram must match
/// the single-table reference at every shard count (the run exits 1
/// when a point misses the reference).
#include <cstdio>
#include <iostream>

#include "exp/robustness.hpp"
#include "exp/sharded.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hdhash;

table_options options_for(std::size_t servers) {
  table_options options;
  // Circle sized at 3k/2 keeps the similarity lattice step
  // d/n >= ~3 bits even at k = 2048, preserving HD's decode margins.
  options.hd.capacity = std::max<std::size_t>(256, servers * 3 / 2);
  return options;
}

void run_panel(std::size_t servers, std::size_t requests, std::size_t trials) {
  robustness_config config;
  config.servers = servers;
  config.requests = requests;
  config.max_bit_flips = 10;
  config.trials = trials;

  const std::vector<std::string_view> algorithms = {
      "consistent", "consistent-rank", "rendezvous", "hd"};
  std::vector<std::vector<mismatch_point>> series;
  for (const auto algorithm : algorithms) {
    series.push_back(
        run_mismatch_sweep(algorithm, config, options_for(servers)));
  }

  std::printf("\n-- %zu servers (%zu requests, %zu trials per point) --\n",
              servers, requests, trials);
  std::vector<std::string> columns = {"bit errors"};
  for (const auto algorithm : algorithms) {
    columns.emplace_back(algorithm);
  }
  table_printer table(columns);
  for (std::size_t e = 0; e <= config.max_bit_flips; ++e) {
    std::vector<std::string> row = {std::to_string(e)};
    for (const auto& s : series) {
      row.push_back(format_percent(s[e].mismatch_rate));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

void run_mcu_headline() {
  robustness_config config;
  config.servers = 512;
  config.requests = 5000;
  config.max_bit_flips = 10;
  config.trials = 10;
  config.kind = upset_kind::mcu;  // one burst of `e` adjacent bits

  // Tight circle (n = 560 > k) maximizes the lattice step (d/n = 17
  // bits).  A burst's distance perturbation is probe-dependent (each
  // slot sees a ±1 sum over the 10 burst positions), so bursts beyond
  // step/2 = 8.5 bits can occasionally shift one slot by a level —
  // HD's guaranteed burst tolerance at d = 10,000 is d/(2n) < 10 bits
  // once n must exceed 512 servers.  Expect 0.0x% rather than exact 0
  // here; the SEU panels above are exactly zero.
  table_options hd_options = options_for(512);
  hd_options.hd.capacity = 560;

  std::printf(
      "\n-- Section 1 headline: 512 servers, one MCU burst of N bits --\n");
  table_printer table({"burst bits", "consistent-rank", "rendezvous", "hd"});
  const auto consistent =
      run_mismatch_sweep("consistent-rank", config, options_for(512));
  const auto rendezvous =
      run_mismatch_sweep("rendezvous", config, options_for(512));
  const auto hd = run_mismatch_sweep("hd", config, hd_options);
  for (const std::size_t e : {4u, 8u, 10u}) {
    table.add_row({std::to_string(e),
                   format_percent(consistent[e].mismatch_rate),
                   format_percent(rendezvous[e].mismatch_rate),
                   format_percent(hd[e].mismatch_rate)});
  }
  table.print(std::cout);
  std::printf("(paper: consistent 12%%, rendezvous 4%%, HD 0%% at 10 bits)\n");
}

/// Prints the sharded shadow panel; false when any point's merged
/// histogram misses the single-table reference.
bool run_sharded_shadow_panel(std::size_t max_shards) {
  shard_sweep_config config;
  config.shard_counts = shard_count_sweep(max_shards);
  config.servers = 128;
  config.requests = 20'000;
  config.shadow = true;  // pristine oracle (epoch-lockstep twin publisher)
  table_options options;
  options.hd.dimension = 4096;
  options.hd.capacity = 512;

  std::printf(
      "\n-- Sharded emulator with shadow oracles (hd-hierarchical,\n"
      "   %zu servers, %zu requests) --\n",
      config.servers, config.requests);
  table_printer table({"shards", "requests", "mismatches", "aggregate req/s",
                       "deterministic"});
  const auto series = run_shard_sweep("hd-hierarchical", config, options);
  bool deterministic = true;
  for (const shard_sweep_point& p : series) {
    deterministic = deterministic && p.matches_reference;
    table.add_row({std::to_string(p.shards), std::to_string(p.merged.requests),
                   std::to_string(p.merged.mismatches),
                   format_double(p.aggregate_requests_per_second, 0),
                   p.matches_reference ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf(
      "(a pristine twin publisher advances epochs in lockstep with the\n"
      "primary, so every shard checks its answers against the matching\n"
      "shadow snapshot; zero mismatches certify the partition/publication\n"
      "plumbing, and 'deterministic' the merged histogram against the\n"
      "reference)\n");
  return deterministic;
}

}  // namespace

int main(int argc, char** argv) {
  const hdhash::emulator_options opts =
      hdhash::parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }
  std::printf("== Figure 5: mismatched requests vs bit errors ==\n");
  run_panel(64, 5000, 5);
  run_panel(512, 5000, 8);
  run_panel(2048, 1500, 2);
  run_mcu_headline();
  const bool deterministic =
      opts.shards < 1 || run_sharded_shadow_panel(opts.shards);
  std::printf(
      "\nShape check (paper): HD hashing stays at 0.00%% across the sweep;\n"
      "rendezvous loses ~2x flips/k of requests; consistent hashing (rank\n"
      "resolution) is the most fragile, with heavy-tailed losses.\n");
  if (!deterministic) {
    std::fprintf(stderr,
                 "sharded run missed the single-table reference\n");
    return 1;
  }
  return 0;
}
