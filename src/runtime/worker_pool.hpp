/// \file worker_pool.hpp
/// \brief Reusable pool of pinned worker threads — the execution
/// substrate the sharded emulator (and every future scaling layer)
/// runs on.
///
/// The pool spawns its workers once, pins each to the CPU its
/// placement plan assigned (pthread_setaffinity_np where available; a
/// graceful per-worker no-op elsewhere — the `pinned` flag in
/// worker_info reports what actually happened), and then executes
/// submitted jobs FIFO per worker.  Jobs addressed to different
/// workers run concurrently; jobs addressed to the same worker are
/// serialized on that worker's thread, which is what makes per-worker
/// state (shard stats, scratch buffers) single-owner by construction.
///
/// Error contract: a throwing job does not kill its worker — the
/// exception is captured, subsequent jobs still run (so channel-drain
/// protocols never deadlock), and the first captured exception is
/// rethrown from wait_idle().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/placement_plan.hpp"

namespace hdhash::runtime {

/// What one worker actually got, as opposed to what the plan asked.
struct worker_info {
  int cpu = -1;        ///< CPU the worker is pinned to; -1 unpinned
  int node = -1;       ///< NUMA node of that CPU; -1 unpinned
  bool pinned = false; ///< the affinity syscall was made and succeeded
};

/// Fixed-size pool of pinned threads with per-worker FIFO job queues.
class worker_pool {
 public:
  using job = std::function<void()>;

  /// Spawns `workers` threads placed by `plan_placement(topology,
  /// workers, policy)`.  The constructor returns only after every
  /// worker has started and applied (or skipped) its pinning, so
  /// info() is immediately consistent.  \pre workers >= 1.
  worker_pool(std::size_t workers, placement_policy policy,
              const cpu_topology& topology);

  /// Same, against the cached host topology (discover(), once per
  /// process).
  worker_pool(std::size_t workers, placement_policy policy);

  /// Drains every queue, then joins all workers.
  ~worker_pool();

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  std::size_t size() const noexcept;
  placement_policy policy() const noexcept { return plan_.policy; }
  const placement_plan& plan() const noexcept { return plan_; }
  /// Post-pinning outcome for one worker.  \pre worker < size().
  const worker_info& info(std::size_t worker) const;
  /// True when at least one worker is actually pinned.
  bool any_pinned() const noexcept;

  /// Enqueues a job on one worker's FIFO queue (non-blocking).
  /// \pre worker < size().
  void submit(std::size_t worker, job work);

  /// Blocks until every worker's queue is empty and its thread idle,
  /// then rethrows the first exception any job raised since the last
  /// wait_idle() (clearing it).
  void wait_idle();

  /// Whether this build can pin at all (compile-time capability; a
  /// true here can still degrade per-worker at runtime, e.g. when the
  /// assigned CPU left the allowed cpuset between plan and spawn).
  static bool pinning_supported() noexcept;

 private:
  struct worker_state;

  placement_plan plan_;
  std::vector<std::unique_ptr<worker_state>> workers_;
};

/// The host topology, discovered once per process and cached (sysfs
/// parse + affinity probe).  Every sharded_emulator shares this; tests
/// that need a different shape construct their own cpu_topology.
const cpu_topology& host_topology();

}  // namespace hdhash::runtime
