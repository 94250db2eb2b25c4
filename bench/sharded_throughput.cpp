/// Sharded-emulator throughput: aggregate requests/sec versus shard
/// count (1–16) on hd-hierarchical, with the determinism check that the
/// merged load histogram is bit-identical to the single-table reference
/// run.  Emits BENCH_sharded_emulator.json for the perf trajectory and
/// exits 1 when any point misses the reference.
///
/// Four series are recorded, crossing churn × placement × producers:
///  * results / results_churn — the epoch-published snapshot pipeline:
///    one producer-owned table, membership applied once per event, each
///    epoch published as an immutable copy-on-write snapshot carrying
///    the maintained slot cache that every shard shares.  Churn
///    subdivides batches into epoch segments instead of truncating
///    them, and the slot array is maintained incrementally (O(n) row
///    distances per event).  Workers run under the default placement
///    policy (compact — pinned one per allowed CPU in NUMA-node order;
///    --pin/HDHASH_PIN override).
///  * results_unpinned — the clean sweep re-run under policy `none`
///    (OS scheduler placement): together with `results` this is the
///    delivered-vs-service scaling comparison per placement policy,
///    summarized in `placement_scaling`.  When the main series already
///    runs unpinned (--pin=none), the ablation collapses onto it
///    instead of running the identical sweep twice.
///  * results_multi_producer — the clean sweep with M pinned producer
///    threads feeding the lock-free SPSC ingest mesh (--producers,
///    default 2): same determinism bar as the single-producer series,
///    measuring what parallel partition/encode buys when the producer
///    side stops being the bottleneck.
///
/// Two rates per point:
///  * aggregate_rps — the sum of per-shard service rates, each metered
///    on the worker's own CPU clock inside lookup_batch: the pipeline's
///    capacity with one core per shard;
///  * wall_rps — delivered end-to-end rate, which saturates at the
///    machine's core count.  The JSON records the full discovered
///    topology — including the allowed-cpuset size, which on a
///    cgroup-restricted CI runner is what actually bounds delivered
///    scaling — so a 1-core box is readable as such.
/// Plus table_memory_bytes: ~one table + snapshot bookkeeping, whatever
/// the shard count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/sharded.hpp"
#include "runtime/worker_pool.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hdhash;

shard_sweep_config sweep_config(std::size_t requests, double churn,
                                runtime::placement_policy placement,
                                std::size_t producers = 1) {
  shard_sweep_config config;
  config.shard_counts = {1, 2, 4, 8, 16};
  config.servers = 128;
  config.requests = requests;
  config.churn_rate = churn;
  config.placement = placement;
  config.producers = producers;
  return config;
}

std::vector<shard_sweep_point> run_and_print(const shard_sweep_config& config,
                                             const char* title) {
  table_options options;
  options.hd.capacity = 512;  // hierarchical shards get capacity/groups*2
  const auto series = run_shard_sweep("hd-hierarchical", config, options);

  std::printf(
      "\n-- %s (%.1f%% churn, placement %s, %zu producer(s)) --\n",
      title, 100.0 * config.churn_rate,
      std::string(runtime::to_string(config.placement)).c_str(),
      config.producers);
  table_printer table({"shards", "aggregate req/s", "speedup", "wall req/s",
                       "table MiB", "pinned", "deterministic"});
  for (const shard_sweep_point& p : series) {
    table.add_row({std::to_string(p.shards),
                   format_double(p.aggregate_requests_per_second, 0),
                   format_double(p.aggregate_speedup, 2),
                   format_double(p.wall_requests_per_second, 0),
                   format_double(static_cast<double>(p.table_memory_bytes) /
                                     (1024.0 * 1024.0),
                                 2),
                   std::to_string(p.pinned_workers) + "/" +
                       std::to_string(p.shards),
                   p.matches_reference ? "yes" : "NO"});
  }
  table.print(std::cout);
  return series;
}

void emit_series(std::FILE* out, const char* key,
                 const std::vector<shard_sweep_point>& series,
                 const char* trailer) {
  std::fprintf(out, "  \"%s\": [\n", key);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const shard_sweep_point& p = series[i];
    std::fprintf(out,
                 "    {\"shards\": %zu, \"producers\": %zu, "
                 "\"aggregate_rps\": %.0f, "
                 "\"aggregate_speedup\": %.2f, \"wall_rps\": %.0f, "
                 "\"table_memory_bytes\": %zu, \"snapshots_published\": %zu, "
                 "\"placement_policy\": \"%s\", \"pinned_workers\": %zu, "
                 "\"deterministic\": %s}%s\n",
                 p.shards, p.producers, p.aggregate_requests_per_second,
                 p.aggregate_speedup, p.wall_requests_per_second,
                 p.table_memory_bytes, p.snapshots_published,
                 std::string(runtime::to_string(p.placement)).c_str(),
                 p.pinned_workers, p.matches_reference ? "true" : "false",
                 i + 1 < series.size() ? "," : "");
  }
  std::fprintf(out, "  ]%s\n", trailer);
}

/// Delivered-vs-service scaling at the deepest shard count of a series:
/// how much of the pipeline's capacity growth the wall clock delivered.
void emit_scaling_entry(std::FILE* out, const char* policy,
                        const std::vector<shard_sweep_point>& series,
                        const char* trailer) {
  const shard_sweep_point& first = series.front();
  const shard_sweep_point& last = series.back();
  const double service = last.aggregate_speedup;
  const double delivered =
      first.wall_requests_per_second > 0.0
          ? last.wall_requests_per_second / first.wall_requests_per_second
          : 0.0;
  std::fprintf(out,
               "    {\"policy\": \"%s\", \"shards\": %zu, "
               "\"service_speedup\": %.2f, \"delivered_speedup\": %.2f, "
               "\"pinned_workers\": %zu}%s\n",
               policy, last.shards, service, delivered, last.pinned_workers,
               trailer);
  std::printf("  %-9s service x%.2f, delivered x%.2f at %zu shards "
              "(%zu/%zu workers pinned)\n",
              policy, service, delivered, last.shards, last.pinned_workers,
              last.shards);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  std::string json_path = "BENCH_sharded_emulator.json";
  std::size_t requests = 40'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = parse_positive_value(argv[i] + 11);
      if (requests == 0) {
        std::fprintf(stderr, "--requests needs a positive integer\n");
        return 1;
      }
    }
  }
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }
  const runtime::placement_policy policy = opts.placement;
  // The multi-producer series runs M pinned producer threads feeding
  // the SPSC ingest mesh; --producers overrides the default of 2.
  const std::size_t multi_producers =
      opts.producers > 1 ? opts.producers : 2;

  const runtime::cpu_topology& topo = runtime::host_topology();
  const auto snap = sweep_config(requests, 0.0, policy);
  std::printf(
      "== Sharded emulator throughput (hd-hierarchical, %zu servers,\n"
      "   %zu requests, per-shard batch %zu) ==\n"
      "topology: %zu package(s), %zu NUMA node(s), %zu physical core(s),\n"
      "   %zu logical CPU(s), %zu allowed by cpuset; pinning %s\n",
      snap.servers, snap.requests, snap.buffer_capacity, topo.packages(),
      topo.numa_nodes(), topo.physical_cores(), topo.logical_cpus(),
      topo.allowed_cpus().size(),
      runtime::worker_pool::pinning_supported() ? "supported" : "unsupported");

  const auto snap_churn = sweep_config(requests, 0.01, policy);
  const auto multi = sweep_config(requests, 0.0, policy, multi_producers);

  const auto snap_series = run_and_print(snap, "request traffic only");
  const auto snap_churn_series =
      run_and_print(snap_churn, "with membership churn");
  const auto multi_series =
      run_and_print(multi, "multi-producer ingest mesh");
  // The pinning ablation: the clean sweep under `none`.  When
  // the main series already runs unpinned (--pin=none / HDHASH_PIN),
  // re-running it would duplicate both the work and the JSON entry, so
  // the ablation collapses onto the main series.
  const bool main_is_unpinned = policy == runtime::placement_policy::none;
  const auto unpinned_series =
      main_is_unpinned
          ? snap_series
          : run_and_print(sweep_config(requests, 0.0,
                                       runtime::placement_policy::none),
                          "request traffic only, unpinned");
  std::printf(
      "\nAggregate req/s sums each shard's service rate on its own CPU\n"
      "clock (the capacity of one core per shard); wall req/s is the\n"
      "delivered rate and saturates at the allowed-cpuset size.  All\n"
      "shards resolve against one epoch-published copy-on-write\n"
      "snapshot (table memory ~independent of the shard count), and\n"
      "churn only subdivides batches into epoch segments.\n"
      "\nDelivered-vs-service scaling per placement policy:\n");

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"sharded_emulator_throughput\",\n"
               "  \"algorithm\": \"hd-hierarchical\",\n"
               "  \"servers\": %zu,\n"
               "  \"requests\": %zu,\n"
               "  \"results_churn_rate\": %.4f,\n"
               "  \"shard_buffer_capacity\": %zu,\n"
               "  \"multi_producer_count\": %zu,\n"
               "  \"placement_policy\": \"%s\",\n"
               "  \"hardware_cores\": %u,\n"
               "  \"topology\": {\"packages\": %zu, \"numa_nodes\": %zu, "
               "\"physical_cores\": %zu, \"logical_cpus\": %zu, "
               "\"allowed_cpus\": %zu, \"smt_per_core\": %zu, "
               "\"pinning_supported\": %s, \"from_sysfs\": %s},\n",
               snap.servers, snap.requests, snap_churn.churn_rate,
               snap.buffer_capacity, multi_producers,
               std::string(runtime::to_string(policy)).c_str(),
               std::thread::hardware_concurrency(), topo.packages(),
               topo.numa_nodes(), topo.physical_cores(), topo.logical_cpus(),
               topo.allowed_cpus().size(), topo.smt_per_core(),
               runtime::worker_pool::pinning_supported() ? "true" : "false",
               topo.from_sysfs_tree() ? "true" : "false");
  std::fprintf(out, "  \"placement_scaling\": [\n");
  emit_scaling_entry(out, std::string(runtime::to_string(policy)).c_str(),
                     snap_series, main_is_unpinned ? "" : ",");
  if (!main_is_unpinned) {
    emit_scaling_entry(out, "none", unpinned_series, "");
  }
  std::fprintf(out, "  ],\n");
  emit_series(out, "results", snap_series, ",");
  emit_series(out, "results_churn", snap_churn_series, ",");
  emit_series(out, "results_multi_producer", multi_series, ",");
  emit_series(out, "results_unpinned", unpinned_series, "");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  bool deterministic = true;
  for (const auto* series : {&snap_series, &snap_churn_series, &multi_series,
                             &unpinned_series}) {
    for (const shard_sweep_point& p : *series) {
      deterministic = deterministic && p.matches_reference;
    }
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "a sharded point missed the single-table reference "
                 "(deterministic=false in %s)\n",
                 json_path.c_str());
    return 1;
  }
  return 0;
}
