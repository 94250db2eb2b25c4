#include "runtime/placement_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "util/require.hpp"

namespace hdhash::runtime {

std::string_view to_string(placement_policy policy) noexcept {
  switch (policy) {
    case placement_policy::none:
      return "none";
    case placement_policy::compact:
      return "compact";
  }
  return "none";
}

std::optional<placement_policy> parse_placement_policy(std::string_view name) {
  if (name == "none") {
    return placement_policy::none;
  }
  if (name == "compact") {
    return placement_policy::compact;
  }
  return std::nullopt;
}

placement_policy default_placement_policy() {
  const char* env = std::getenv("HDHASH_PIN");
  if (env == nullptr || *env == '\0') {
    return placement_policy::compact;
  }
  const auto policy = parse_placement_policy(env);
  HDHASH_REQUIRE(policy.has_value(),
                 "HDHASH_PIN must be one of none|compact");
  return *policy;
}

namespace {

/// Allowed CPUs in compact order: by node, then package and core, SMT
/// siblings adjacent.
std::vector<const logical_cpu*> compact_order(const cpu_topology& topology) {
  std::vector<const logical_cpu*> cpus;
  for (const logical_cpu& cpu : topology.cpus()) {
    if (cpu.allowed) {
      cpus.push_back(&cpu);
    }
  }
  const auto key = [](const logical_cpu* c) {
    return std::make_tuple(c->node, c->package, c->core, c->smt_rank, c->id);
  };
  std::sort(cpus.begin(), cpus.end(),
            [&](const logical_cpu* a, const logical_cpu* b) {
              return key(a) < key(b);
            });
  return cpus;
}

}  // namespace

placement_plan plan_placement(const cpu_topology& topology,
                              std::size_t workers, placement_policy policy) {
  placement_plan plan;
  plan.policy = policy;
  plan.workers.assign(workers, worker_placement{});
  if (policy == placement_policy::none) {
    return plan;
  }
  const std::vector<const logical_cpu*> order = compact_order(topology);
  if (order.empty()) {
    return plan;  // nothing allowed: every worker stays unpinned
  }
  plan.oversubscribed = workers > order.size();
  for (std::size_t w = 0; w < workers; ++w) {
    const logical_cpu* cpu = order[w % order.size()];
    plan.workers[w].cpu = static_cast<int>(cpu->id);
    plan.workers[w].node = static_cast<int>(cpu->node);
  }
  return plan;
}

std::size_t auto_shard_count(const cpu_topology& topology) {
  return auto_shard_count(topology, 1);
}

std::size_t auto_shard_count(const cpu_topology& topology,
                             std::size_t reserved_cores) {
  const std::size_t cores = topology.allowed_physical_cores();
  if (cores > reserved_cores + 1) {
    return cores - reserved_cores;  // reserved workers get their own cores
  }
  // Too small to dedicate cores: every worker shares the full set.
  return std::max<std::size_t>(cores, 1);
}

io_shard_split plan_io_shard_split(const cpu_topology& topology,
                                   std::size_t requested_io) {
  const std::size_t cores =
      std::max<std::size_t>(topology.allowed_physical_cores(), 1);
  io_shard_split split;
  if (requested_io == 0) {
    split.io_threads = std::clamp<std::size_t>(cores / 4, 1, 4);
  } else {
    split.io_threads = std::min(requested_io, cores);
  }
  split.shards = auto_shard_count(topology, split.io_threads);
  return split;
}

}  // namespace hdhash::runtime
