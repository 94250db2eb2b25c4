/// placement_plan policy → CPU mapping on canned topologies, auto
/// shard sizing, and the pinned worker_pool's execution contract
/// (per-worker FIFO, cross-worker concurrency, error propagation,
/// graceful pinning degradation).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "runtime/worker_pool.hpp"
#include "util/require.hpp"

namespace hdhash::runtime {
namespace {

/// Hand-built topologies (no sysfs involved): the placement mapping is
/// a pure function of the topology object, so tests construct exactly
/// the shapes they assert about.
logical_cpu make_cpu(unsigned id, unsigned package, unsigned core,
                     unsigned node, bool allowed = true) {
  logical_cpu cpu;
  cpu.id = id;
  cpu.package = package;
  cpu.core = core;
  cpu.node = node;
  cpu.allowed = allowed;
  return cpu;
}

/// 1 socket, 4 cores, SMT-2: cpu0-3 thread 0 of cores 0-3, cpu4-7
/// their hyper-twins (the kernel's usual numbering).
cpu_topology smt_box() {
  std::vector<logical_cpu> cpus;
  for (unsigned id = 0; id < 8; ++id) {
    cpus.push_back(make_cpu(id, 0, id % 4, 0));
  }
  return cpu_topology::from_cpus(std::move(cpus));
}

/// 2 sockets × 2 cores × SMT-2, one NUMA node per socket; cpu0-3
/// thread 0 (node 0: cores 0-1, node 1: cores 0-1), cpu4-7 thread 1.
cpu_topology dual_node_smt_box() {
  std::vector<logical_cpu> cpus;
  for (unsigned id = 0; id < 8; ++id) {
    const unsigned package = (id % 4) / 2;
    cpus.push_back(make_cpu(id, package, id % 2, package));
  }
  return cpu_topology::from_cpus(std::move(cpus));
}

std::vector<int> planned_cpus(const placement_plan& plan) {
  std::vector<int> cpus;
  for (const worker_placement& w : plan.workers) {
    cpus.push_back(w.cpu);
  }
  return cpus;
}

TEST(PlacementPolicyNamesTest, RoundTrip) {
  for (const auto policy :
       {placement_policy::none, placement_policy::compact}) {
    const auto parsed = parse_placement_policy(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  // Only none and compact exist; any other name is rejected.
  for (const char* removed : {"scatter", "smt-aware", "smt_aware"}) {
    EXPECT_FALSE(parse_placement_policy(removed).has_value()) << removed;
  }
  EXPECT_FALSE(parse_placement_policy("pinned").has_value());
  EXPECT_FALSE(parse_placement_policy("").has_value());
}

TEST(PlacementPlanTest, NonePinsNothing) {
  const placement_plan plan =
      plan_placement(smt_box(), 4, placement_policy::none);
  EXPECT_EQ(plan.workers.size(), 4u);
  for (const worker_placement& w : plan.workers) {
    EXPECT_EQ(w.cpu, -1);
    EXPECT_EQ(w.node, -1);
  }
  EXPECT_FALSE(plan.oversubscribed);
}

TEST(PlacementPlanTest, CompactFillsCpusInOrderOnFlatTopology) {
  const placement_plan plan =
      plan_placement(cpu_topology::flat(4), 4, placement_policy::compact);
  EXPECT_EQ(planned_cpus(plan), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(plan.oversubscribed);
}

TEST(PlacementPlanTest, CompactKeepsSmtSiblingsAdjacent) {
  // SMT box: cores (0,4) (1,5) (2,6) (3,7) — compact fills a core's
  // two hardware threads together before moving to the next core.
  const placement_plan plan =
      plan_placement(smt_box(), 8, placement_policy::compact);
  EXPECT_EQ(planned_cpus(plan),
            (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
}

TEST(PlacementPlanTest, CompactFillsOneNodeBeforeTheNext) {
  const placement_plan plan =
      plan_placement(dual_node_smt_box(), 8, placement_policy::compact);
  EXPECT_EQ(planned_cpus(plan),
            (std::vector<int>{0, 4, 1, 5, 2, 6, 3, 7}));
  // First four workers never leave node 0.
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(plan.workers[w].node, 0) << "worker " << w;
  }
}

TEST(PlacementPlanTest, OnlyAllowedCpusAreAssigned) {
  // cgroup-restricted box: of the SMT shape only cpus {1, 5, 2} may
  // run; compact confines itself to (and wraps within) those, and none
  // assigns no CPU at all.
  std::vector<logical_cpu> cpus;
  for (unsigned id = 0; id < 8; ++id) {
    cpus.push_back(
        make_cpu(id, 0, id % 4, 0, id == 1 || id == 5 || id == 2));
  }
  const cpu_topology topology = cpu_topology::from_cpus(std::move(cpus));
  for (const auto policy :
       {placement_policy::none, placement_policy::compact}) {
    const placement_plan plan = plan_placement(topology, 5, policy);
    const bool pins = policy != placement_policy::none;
    EXPECT_EQ(plan.oversubscribed, pins);
    for (const worker_placement& w : plan.workers) {
      EXPECT_TRUE(pins ? w.cpu == 1 || w.cpu == 5 || w.cpu == 2 : w.cpu == -1)
          << to_string(policy) << " assigned cpu " << w.cpu;
    }
  }
  // compact keeps core 1's siblings (1, 5) adjacent, then cpu2, wrap.
  const placement_plan compact =
      plan_placement(topology, 5, placement_policy::compact);
  EXPECT_EQ(planned_cpus(compact), (std::vector<int>{1, 5, 2, 1, 5}));
}

TEST(PlacementPlanTest, WrapsAroundWhenOversubscribed) {
  const placement_plan plan =
      plan_placement(cpu_topology::flat(2), 5, placement_policy::compact);
  EXPECT_EQ(planned_cpus(plan), (std::vector<int>{0, 1, 0, 1, 0}));
  EXPECT_TRUE(plan.oversubscribed);
}

TEST(PlacementPlanTest, AutoShardCountReservesProducerCore) {
  EXPECT_EQ(auto_shard_count(cpu_topology::flat(1)), 1u);
  EXPECT_EQ(auto_shard_count(cpu_topology::flat(2)), 2u);
  // More than two cores: one is left for the producer thread.
  EXPECT_EQ(auto_shard_count(cpu_topology::flat(4)), 3u);
  EXPECT_EQ(auto_shard_count(cpu_topology::flat(16)), 15u);
}

TEST(WorkerPoolTest, RunsJobsOnEveryWorker) {
  worker_pool pool(4, placement_policy::none, cpu_topology::flat(4));
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> counts(4);
  for (std::size_t w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i) {
      pool.submit(w, [&counts, w] { counts[w].fetch_add(1); });
    }
  }
  pool.wait_idle();
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(counts[w].load(), 10);
  }
}

TEST(WorkerPoolTest, JobsOnOneWorkerAreFifo) {
  worker_pool pool(1, placement_policy::none, cpu_topology::flat(1));
  std::vector<int> order;  // only worker 0 writes; read after wait_idle
  for (int i = 0; i < 100; ++i) {
    pool.submit(0, [&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(WorkerPoolTest, FirstJobExceptionSurfacesFromWaitIdle) {
  worker_pool pool(2, placement_policy::none, cpu_topology::flat(2));
  std::atomic<int> later_jobs{0};
  pool.submit(1, [] { throw precondition_error("boom"); });
  // Subsequent jobs still run — a faulted worker keeps draining (the
  // channel-drain protocols of the sharded emulator depend on it).
  pool.submit(1, [&later_jobs] { later_jobs.fetch_add(1); });
  EXPECT_THROW(pool.wait_idle(), precondition_error);
  EXPECT_EQ(later_jobs.load(), 1);
  // The error was consumed: the pool is reusable afterwards.
  pool.submit(0, [&later_jobs] { later_jobs.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(later_jobs.load(), 2);
}

TEST(WorkerPoolTest, PinnedWorkersReportTheirPlannedCpu) {
  // On the host topology with compact placement, every worker either
  // pinned to its planned CPU (and reports cpu/node >= 0) or degraded
  // gracefully (reports unpinned) — both are legal; inconsistent
  // reporting is not.
  worker_pool pool(2, placement_policy::compact);
  const placement_plan& plan = pool.plan();
  ASSERT_EQ(plan.workers.size(), 2u);
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const worker_info& info = pool.info(w);
    if (info.pinned) {
      EXPECT_TRUE(worker_pool::pinning_supported());
      EXPECT_EQ(info.cpu, plan.workers[w].cpu);
      EXPECT_EQ(info.node, plan.workers[w].node);
    } else {
      EXPECT_EQ(info.cpu, -1);
      EXPECT_EQ(info.node, -1);
    }
  }
}

TEST(WorkerPoolTest, PolicyNoneNeverPins) {
  worker_pool pool(2, placement_policy::none);
  EXPECT_FALSE(pool.any_pinned());
  for (std::size_t w = 0; w < pool.size(); ++w) {
    EXPECT_FALSE(pool.info(w).pinned);
  }
}

TEST(WorkerPoolTest, RejectsInvalidUse) {
  EXPECT_THROW(worker_pool(0, placement_policy::none, cpu_topology::flat(1)),
               precondition_error);
  worker_pool pool(1, placement_policy::none, cpu_topology::flat(1));
  EXPECT_THROW(pool.submit(1, [] {}), precondition_error);
  EXPECT_THROW(pool.submit(0, nullptr), precondition_error);
}

TEST(WorkerPoolTest, HostTopologyIsCachedAndUsable) {
  const cpu_topology& first = host_topology();
  const cpu_topology& second = host_topology();
  EXPECT_EQ(&first, &second);  // one discovery per process
  EXPECT_GE(first.allowed_cpus().size(), 1u);
}

}  // namespace
}  // namespace hdhash::runtime
