/// Multi-core elastic load balancer: the load_balancer example scaled
/// onto the sharded emulation pipeline.  Heavy-tailed (Zipf) traffic
/// with autoscaling churn is partitioned across shard workers, and the
/// merged statistics are proven identical to a single-table run of the
/// same stream.
///
/// The pipeline is the epoch-published shared-state architecture: one
/// producer-owned hd-hierarchical table absorbs joins/leaves, each
/// membership epoch is published once as an immutable copy-on-write
/// snapshot, and every shard worker resolves its requests against the
/// snapshot of the epoch they arrived under, so the table-memory column
/// stays flat as the shard count grows.  Pass --scenario
/// <name> to replace the default Zipf/churn workload with a compiled
/// production playbook (steady, diurnal, flash-crowd, rack-failure,
/// rolling-upgrade, grey-server) — the scenario engine emits the same
/// plain event stream, so nothing else changes.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "emu/emulator.hpp"
#include "emu/generator.hpp"
#include "emu/sharded_emulator.hpp"
#include "exp/factory.hpp"
#include "exp/sharded.hpp"
#include "scenario/playbooks.hpp"
#include "scenario/scenario.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace hdhash;
  // One parser for every emulator knob: --shards N|auto, --producers
  // M|auto, --pin <policy>, --scenario <name>.
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }
  const std::vector<std::size_t> shard_counts =
      opts.shards_set ? shard_count_sweep(opts.shards)
                      : std::vector<std::size_t>{1, 2, 4, 8};

  const runtime::cpu_topology& topo = runtime::host_topology();
  const std::string workload_label =
      opts.scenario_set ? "scenario '" + opts.scenario + "'"
                        : "Zipf traffic, 1% churn";
  std::printf(
      "== Sharded balancer: %s, hd-hierarchical,\n"
      "   placement %s, %zu producer(s) ==\n"
      "   (topology: %zu core(s), %zu allowed CPU(s), %zu NUMA node(s)%s)\n\n",
      workload_label.c_str(),
      std::string(runtime::to_string(opts.placement)).c_str(), opts.producers,
      topo.physical_cores(),
      topo.allowed_cpus().size(), topo.numa_nodes(),
      opts.shards_auto ? ", --shards auto" : "");

  // Either the historical Zipf/churn generator stream or a compiled
  // production playbook — both are the same plain event vocabulary.
  std::vector<event> events;
  std::size_t capacity_floor = 256;  // headroom for churn joins
  if (opts.scenario_set) {
    const compiled_scenario compiled =
        compile_scenario(make_scenario(opts.scenario));
    events = compiled.events;
    capacity_floor = std::max(capacity_floor,
                              2 * (compiled.max_pool_weight + 2));
  } else {
    workload_config workload;
    workload.initial_servers = 48;
    workload.request_count = 40'000;
    workload.distribution = request_distribution::zipf;
    workload.zipf_skew = 0.9;
    workload.key_universe = 200'000;
    workload.churn_rate = 0.01;
    workload.seed = 20'26;
    events = generator(workload).generate();
  }

  table_options options;
  options.hd.dimension = 4096;
  options.hd.capacity = capacity_floor;
  // Each epoch publishes the maintained slot cache (the accelerator
  // steady state all shards share); the reference run below keeps it
  // off, so 'identical' also certifies the cache.
  table_options sharded_options = options;
  sharded_options.hd.slot_cache = true;
  auto factory = [&sharded_options](std::size_t) {
    return make_table("hd-hierarchical", sharded_options);
  };

  // Single-table reference: the determinism baseline for every row.
  auto reference_table = make_table("hd-hierarchical", options);
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  table_printer table({"shards", "requests", "joins", "leaves",
                       "peak/mean load", "aggregate req/s", "table KiB",
                       "pinned", "identical"});
  for (const std::size_t shard_count : shard_counts) {
    sharded_config config;
    opts.apply(config);
    config.shards = shard_count;  // the sweep overrides the flag value
    sharded_emulator balancer(factory, config);
    const sharded_report report = balancer.run(events);
    std::size_t pinned = 0;
    for (const runtime::worker_info& worker : report.workers) {
      pinned += worker.pinned ? 1 : 0;
    }

    std::uint64_t peak = 0;
    for (const auto& [server, count] : report.merged.load) {
      peak = std::max(peak, count);
    }
    const double mean = static_cast<double>(report.merged.requests) /
                        static_cast<double>(report.merged.load.size());
    table.add_row(
        {std::to_string(shard_count), std::to_string(report.merged.requests),
         std::to_string(report.merged.joins),
         std::to_string(report.merged.leaves),
         format_double(static_cast<double>(peak) / mean, 2),
         format_double(report.aggregate_requests_per_second(), 0),
         std::to_string(report.table_memory_bytes / 1024),
         std::to_string(pinned) + "/" + std::to_string(shard_count),
         report.merged.load == expected.load ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf(
      "\nEvery row answers the same %zu-request stream; 'identical' checks\n"
      "the merged per-server load histogram against the single-table\n"
      "reference run — sharding changes throughput, never assignments.\n"
      "Table KiB stays ~flat: all workers share one epoch-published\n"
      "copy-on-write snapshot.\n",
      expected.requests);
  return 0;
}
