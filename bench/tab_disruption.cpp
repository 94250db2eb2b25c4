/// Minimal-disruption table: the property motivating the paper's problem
/// statement (Section 1 — minimize redistributed requests when a
/// resource joins or leaves).  For each algorithm: measured remap
/// fraction on join/leave versus the theoretical minimum (the share the
/// newcomer takes / the departed server owned).
///
/// `--shards N` additionally sweeps the churn workload through the
/// sharded, double-buffered emulator at 1..N shards (powers of two),
/// verifying that the merged load histogram under heavy membership churn
/// stays bit-identical to the single-table reference at every shard
/// count, and reporting each point's aggregate service rate.  The run
/// exits 1 when any point misses the reference.
#include <cstdio>
#include <iostream>

#include "exp/disruption.hpp"
#include "exp/sharded.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hdhash;

/// Prints the sharded churn panel; false when any point's merged
/// histogram misses the single-table reference.
bool run_sharded_churn_panel(std::size_t max_shards) {
  shard_sweep_config config;
  config.shard_counts = shard_count_sweep(max_shards);
  config.servers = 64;
  config.requests = 20'000;
  config.churn_rate = 0.01;  // the disruption regime: constant churn
  table_options options;
  options.hd.dimension = 4096;
  options.hd.capacity = 256;

  std::printf(
      "\n-- Sharded emulator under churn (hd-hierarchical, %zu servers,\n"
      "   %zu requests, %.0f%% churn) --\n",
      config.servers, config.requests, 100.0 * config.churn_rate);
  const auto series = run_shard_sweep("hd-hierarchical", config, options);
  table_printer table({"shards", "joins", "leaves", "aggregate req/s",
                       "speedup", "deterministic"});
  bool deterministic = true;
  for (const shard_sweep_point& p : series) {
    deterministic = deterministic && p.matches_reference;
    table.add_row({std::to_string(p.shards), std::to_string(p.merged.joins),
                   std::to_string(p.merged.leaves),
                   format_double(p.aggregate_requests_per_second, 0),
                   format_double(p.aggregate_speedup, 2),
                   p.matches_reference ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf(
      "(membership events are applied once by the snapshot publisher and\n"
      "each epoch is shared with every shard, so churn disrupts the\n"
      "sharded pipeline exactly as it disrupts the single table —\n"
      "'deterministic' asserts the histograms agree)\n");
  return deterministic;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }

  std::printf("== Disruption on membership change (128 servers) ==\n\n");

  disruption_config config;  // 128 servers, 20k requests, 8 events
  table_options options;

  table_printer table({"algorithm", "join remap", "join minimum",
                       "leave remap", "leave minimum"});
  for (const auto algorithm : all_algorithms()) {
    const auto result = run_disruption(algorithm, config, options);
    table.add_row({std::string(algorithm), format_percent(result.join_remap),
                   format_percent(result.join_minimum),
                   format_percent(result.leave_remap),
                   format_percent(result.leave_minimum)});
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: modular hashing remaps ~everything (its motivating\n"
      "failure); consistent, rendezvous and HD match their minima exactly;\n"
      "jump adds one backfilled slot on leave; maglev is near-minimal.\n");

  if (opts.shards >= 1 && !run_sharded_churn_panel(opts.shards)) {
    std::fprintf(stderr,
                 "sharded run missed the single-table reference\n");
    return 1;
  }
  return 0;
}
