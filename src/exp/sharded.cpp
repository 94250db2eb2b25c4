#include "exp/sharded.hpp"

#include <algorithm>

#include "emu/generator.hpp"
#include "emu/sharded_emulator.hpp"
#include "util/require.hpp"

namespace hdhash {

std::vector<std::size_t> shard_count_sweep(std::size_t max_shards) {
  max_shards = std::clamp<std::size_t>(max_shards, 1, 256);
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= max_shards; n *= 2) {
    counts.push_back(n);
  }
  if (counts.back() != max_shards) {
    counts.push_back(max_shards);
  }
  return counts;
}

std::vector<shard_sweep_point> run_shard_sweep(std::string_view algorithm,
                                               const shard_sweep_config& config,
                                               const table_options& options) {
  HDHASH_REQUIRE(!config.shard_counts.empty(), "sweep needs shard counts");
  table_options opts = options;
  if (opts.hd.capacity <= config.servers + 2) {  // keep n > k under churn
    opts.hd.capacity = 2 * (config.servers + 2);
  }

  workload_config workload;
  workload.initial_servers = config.servers;
  workload.request_count = config.requests;
  workload.churn_rate = config.churn_rate;
  workload.seed = config.seed;
  const generator gen(workload);
  const auto events = gen.generate();

  // Single-table reference: the plain emulator over the same events,
  // with the caller's unmodified options (real associative query).
  // Determinism of the sharded pipeline means reproducing this run's
  // load histogram bit for bit at every shard count.
  auto reference_table = make_table(algorithm, opts);
  emulator reference(*reference_table, config.buffer_capacity);
  const run_stats expected = reference.run(events);

  // Each published epoch carries the accelerator steady state: the hd
  // slot cache is maintained incrementally by the producer and every
  // shard resolves from the shared frozen slot array.  The reference
  // above keeps the caller's setting, so matches_reference also
  // certifies the maintained cache against cold decoding.
  table_options sharded_opts = opts;
  sharded_opts.hd.slot_cache = true;

  std::vector<shard_sweep_point> series;
  series.reserve(config.shard_counts.size());
  for (const std::size_t shards : config.shard_counts) {
    sharded_config emu_config;
    emu_config.shards = shards;
    emu_config.producers = config.producers;
    emu_config.buffer_capacity = config.buffer_capacity;
    emu_config.shadow = config.shadow;
    emu_config.placement = config.placement;
    sharded_emulator emu(
        [&](std::size_t) { return make_table(algorithm, sharded_opts); },
        emu_config);
    const sharded_report report = emu.run(events);

    shard_sweep_point point;
    point.shards = shards;
    point.producers = config.producers;
    point.merged = report.merged;
    point.wall_seconds = report.wall_seconds;
    point.aggregate_requests_per_second =
        report.aggregate_requests_per_second();
    point.wall_requests_per_second = report.wall_requests_per_second();
    point.table_memory_bytes = report.table_memory_bytes;
    point.snapshots_published = report.snapshots_published;
    point.placement = report.placement;
    for (const runtime::worker_info& worker : report.workers) {
      point.pinned_workers += worker.pinned ? 1 : 0;
    }
    point.matches_reference = report.merged.load == expected.load &&
                              report.merged.requests == expected.requests &&
                              report.merged.joins == expected.joins &&
                              report.merged.leaves == expected.leaves;
    series.push_back(std::move(point));
  }
  const double base = series.front().aggregate_requests_per_second;
  for (shard_sweep_point& point : series) {
    point.aggregate_speedup =
        base > 0.0 ? point.aggregate_requests_per_second / base : 0.0;
  }
  return series;
}

}  // namespace hdhash
