/// \file placement_plan.hpp
/// \brief Policy → CPU assignment: sizes worker counts to the
/// discovered topology and maps each worker to the logical CPU it
/// should be pinned on.
///
/// A placement plan is a pure function of (topology, worker count,
/// policy) — no threads, no syscalls — so every policy's mapping is
/// unit-testable against canned fixture topologies.  `worker_pool`
/// consumes the plan and performs the actual pinning.
///
/// Policies (both only ever assign CPUs from the allowed cpuset, and
/// wrap around when workers outnumber allowed CPUs):
///
///  * `none`      — no pinning; workers stay wherever the OS scheduler
///                  puts them (the pre-runtime behaviour).
///  * `compact`   — fill one NUMA node before spilling to the next:
///                  node 0's cores (SMT siblings together), then node
///                  1's, …  Maximizes cache/memory locality between
///                  sibling workers; the default for the sharded
///                  pipeline, whose workers share epoch snapshots.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "runtime/cpu_topology.hpp"

namespace hdhash::runtime {

enum class placement_policy : std::uint8_t {
  none,
  compact,
};

/// Canonical CLI/JSON name ("none", "compact").
std::string_view to_string(placement_policy policy) noexcept;

/// Parses a policy name; std::nullopt for unknown names (callers decide
/// whether to fail loudly or fall back).
std::optional<placement_policy> parse_placement_policy(std::string_view name);

/// One worker's assignment.  cpu/node are -1 for unpinned workers
/// (policy `none`, or a topology with nothing usable).
struct worker_placement {
  int cpu = -1;
  int node = -1;
};

struct placement_plan {
  placement_policy policy = placement_policy::none;
  std::vector<worker_placement> workers;
  /// Workers wrapped around the allowed cpuset (more workers than
  /// allowed CPUs): at least two workers share a CPU.
  bool oversubscribed = false;
};

/// Maps `workers` workers onto `topology` under `policy`.  Pure; never
/// fails: an empty/degenerate topology yields unpinned assignments.
placement_plan plan_placement(const cpu_topology& topology,
                              std::size_t workers, placement_policy policy);

/// `shards=auto` sizing: one worker per allowed physical core,
/// reserving one core for the producer thread when more than two are
/// available.  Never returns 0.
std::size_t auto_shard_count(const cpu_topology& topology);

/// `shards=auto` sizing with `reserved_cores` physical cores held back
/// for other pinned workers (io reactors, the producer thread): the
/// shard count is the allowed physical cores minus the reservation,
/// provided at least one core is left over beyond it; on machines too
/// small to honour the reservation the shards get every core (sharing
/// with the reserved workers beats idling).  Never returns 0.
/// `auto_shard_count(t)` ≡ `auto_shard_count(t, 1)`.
std::size_t auto_shard_count(const cpu_topology& topology,
                             std::size_t reserved_cores);

/// The io/shard split the net server uses for `--shards auto`:
/// `io_threads` reactor workers (capped to what the topology can
/// dedicate) plus `auto_shard_count(topology, io_threads)` shards.
struct io_shard_split {
  std::size_t io_threads = 1;
  std::size_t shards = 1;
};

/// Sizes the split.  `requested_io` of 0 means auto: one reactor per
/// four allowed physical cores, between 1 and 4.  io_threads never
/// exceeds the allowed physical cores (so shards always keep >= 1).
io_shard_split plan_io_shard_split(const cpu_topology& topology,
                                   std::size_t requested_io = 0);

/// Process-wide default policy: `compact` (pin where supported),
/// overridable with the HDHASH_PIN environment variable
/// (none|compact).  An unknown value fails loudly
/// (hdhash::precondition_error) rather than silently unpinning — the
/// HDHASH_FORCE_KERNEL convention.
placement_policy default_placement_policy();

}  // namespace hdhash::runtime
