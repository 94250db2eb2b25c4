/// \file sharded.hpp
/// \brief Shard-count sweep driver: runs one workload through the
/// sharded, double-buffered emulator at increasing shard counts and
/// reports throughput plus a determinism check against the single-table
/// reference run.
///
/// This is the multi-core scaling experiment the ROADMAP's "millions of
/// users" north star asks for: the robustness (fig5_mismatch) and
/// disruption (tab_disruption) drivers expose it behind `--shards N`,
/// and bench/sharded_throughput records it as BENCH_sharded_emulator.json.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "emu/emulator.hpp"
#include "emu/sharded_emulator.hpp"
#include "exp/emulator_options.hpp"
#include "exp/factory.hpp"

namespace hdhash {

struct shard_sweep_config {
  /// Shard counts to sweep, in order; the determinism check compares
  /// every point against a plain single-table emulator run.
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8, 16};
  std::size_t servers = 128;       ///< initial join burst
  std::size_t requests = 40'000;   ///< requests per point
  double churn_rate = 0.0;         ///< join/leave probability per slot
  std::size_t buffer_capacity = 256;  ///< per-shard batch size
  /// Mesh producer threads per point (>= 1; see
  /// sharded_config::producers).
  std::size_t producers = 1;
  bool shadow = false;             ///< pristine mismatch oracle per run
  /// Worker placement policy of every sharded run (src/runtime/):
  /// compact by default (HDHASH_PIN overrides process-wide); never
  /// affects assignments, only where workers execute.
  runtime::placement_policy placement = runtime::default_placement_policy();
  std::uint64_t seed = 42;
};

struct shard_sweep_point {
  std::size_t shards = 0;
  /// Producers the point ran with (the sweep config's value).
  std::size_t producers = 1;
  run_stats merged;
  double wall_seconds = 0.0;
  /// Sum of per-shard service rates (requests / on-thread decode time):
  /// the pipeline capacity with one core per shard.
  double aggregate_requests_per_second = 0.0;
  /// Delivered wall-clock rate — bounded by the machine's core count.
  double wall_requests_per_second = 0.0;
  /// aggregate rate relative to this sweep's first point.
  double aggregate_speedup = 0.0;
  /// End-of-run resident table bytes (~one table plus snapshot
  /// bookkeeping).
  std::size_t table_memory_bytes = 0;
  /// Epoch snapshots actually published.
  std::size_t snapshots_published = 0;
  /// Placement policy the point's workers ran under.
  runtime::placement_policy placement = runtime::placement_policy::none;
  /// Workers whose affinity call actually succeeded (0 on platforms
  /// without pinning, or under policy `none`).
  std::size_t pinned_workers = 0;
  /// Merged load histogram (and request/join/leave counts) identical to
  /// the plain single-table emulator run over the same events.
  bool matches_reference = false;
};

/// Runs the sweep for one algorithm.  One producer table is built per
/// point — with the hd slot cache enabled, so each published epoch
/// carries the fully resolved accelerator-steady-state slot array that
/// all shards share.  The reference run uses one more
/// instance of the caller's *unmodified* options (the real associative
/// query), so the determinism check also certifies that the maintained
/// slot cache answers bit-identically to cold decoding.
std::vector<shard_sweep_point> run_shard_sweep(std::string_view algorithm,
                                               const shard_sweep_config& config,
                                               const table_options& options);

/// Shard counts {1, 2, 4, ...} up to and including `max_shards`, which
/// is clamped to [1, 256] (a CLI-facing guard: the drivers feed this
/// straight from --shards).
std::vector<std::size_t> shard_count_sweep(std::size_t max_shards);

// parse_positive_value lives in exp/emulator_options.hpp (it is a
// generic strict CLI integer parser, not an emulator knob) and is
// re-exported here by the include above.

}  // namespace hdhash
