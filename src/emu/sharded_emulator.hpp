/// \file sharded_emulator.hpp
/// \brief Sharded, double-buffered emulation pipeline — the multi-core
/// analogue of the paper's GPU batching (Section 5.1), scaled toward the
/// ROADMAP's "millions of users" target.
///
/// A finite-stream front end over the shard engine, `stream_router`
/// (emu/stream_router.hpp), which owns the table and one decode loop per
/// shard on a pinned worker pool.  run() starts the router, applies each
/// join/leave through it and routes each request through one router
/// session (M with `producers` > 1), stops it, and merges the per-shard
/// statistics its decode loops kept.  While a worker decodes batch i,
/// the producer already fills batch i+1 (double buffering).
///
/// Shadow oracles (sharded_config::shadow): each request is also
/// answered by a pristine clone taken before the sharded_config::corrupt
/// hook ran, and disagreements count as mismatches.  The clone sits
/// behind a second snapshot_publisher that sees every event in lockstep
/// with the router, so each segment carries both snapshots of its epoch.
///
/// Determinism: each request is routed to exactly one shard and resolved
/// against the membership epoch it arrived under, so the merged load
/// histogram is bit-identical to a plain emulator run over the same
/// events — the property the ctest suite asserts and
/// BENCH_sharded_emulator.json records.  A single producer sequences and
/// routes in one pass on the calling thread: a request goes to its shard
/// as soon as its epoch is published, and each epoch is freed by the
/// worker that drains its last segment.  With M producers, membership is
/// *sequenced before the fan-out*: a pre-scan on the calling thread
/// applies every event and tags each contiguous request run with its
/// epoch; the producers then split the requests by index range, and the
/// load histogram is order-insensitive.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "emu/emulator.hpp"
#include "emu/event.hpp"
#include "emu/stream_router.hpp"
#include "runtime/worker_pool.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

/// Configuration of the sharded pipeline.
struct sharded_config {
  /// Worker shards (>= 1); each runs one thread.
  std::size_t shards = 4;
  /// Producer threads feeding the mesh (>= 1).  1 (default) produces
  /// on the calling thread, sequencing membership and routing requests
  /// in one pass over the stream; M > 1 pre-scans the stream to
  /// sequence membership first, then adds M pinned producer workers to
  /// the pool (placed after the shard workers by the same placement
  /// policy), each owning one ring per shard and encoding a
  /// contiguous slice of the request stream.
  std::size_t producers = 1;
  /// Events buffered per shard before a batch is handed to its worker
  /// (the paper's batch size of 256 per shard).
  std::size_t buffer_capacity = 256;
  /// Bounded per-lane ring depth: batches in flight per
  /// (producer, shard) pair before push blocks (backpressure).  2 is
  /// the classic double buffer (rings round up to a power of two).
  std::size_t channel_depth = 2;
  /// Answer every request against a pristine shadow oracle as well and
  /// count disagreements (run_stats::mismatches).  The oracle is one
  /// epoch-published clone of the producer table shared by all shards.
  bool shadow = false;
  /// Fault-injection hook, called once on the producer-owned table
  /// after the shadow oracle (if any) is cloned and before any event
  /// applies.  The shard argument is always 0: there is one mutable
  /// table.  The shadow stays pristine — copy-on-write un-shares
  /// corrupted state on first write — so the mismatch counters measure
  /// exactly the injected corruption.
  std::function<void(dynamic_table& table, std::size_t shard)> corrupt;
  /// How shard workers are placed on the host topology (runtime layer,
  /// src/runtime/).  Default: `compact` — pin where the platform
  /// supports it, one worker per allowed CPU in NUMA-node order —
  /// overridable process-wide with HDHASH_PIN; workers degrade to
  /// unpinned (policy `none` behaviour) wherever the affinity call is
  /// unavailable or refused.  Placement never changes assignments:
  /// the merged histogram is bit-identical under every policy.
  runtime::placement_policy placement = runtime::default_placement_policy();
};

/// Result of one sharded run.
struct sharded_report {
  /// Statistics merged across shards.  joins/leaves count each stream
  /// membership event once, so the merged report is comparable
  /// field-for-field with a single-table run.
  run_stats merged;
  /// Raw per-shard statistics (stream_router::shard_stats()).
  /// joins/leaves are zero: membership is applied once, by the producer.
  std::vector<run_stats> per_shard;
  /// End-to-end pipeline wall time (produce + decode, overlapped).
  double wall_seconds = 0.0;
  /// Resident table bytes at end of run: the producer table plus the
  /// live snapshot's non-shared bookkeeping (~independent of the shard
  /// count).
  std::size_t table_memory_bytes = 0;
  /// Snapshots actually published: at most one per membership epoch
  /// that a request observed.
  std::size_t snapshots_published = 0;
  /// Placement policy the worker pool ran under.
  runtime::placement_policy placement = runtime::placement_policy::none;
  /// Post-pinning outcome per shard worker (cpu/node are -1 and pinned
  /// false wherever affinity was skipped or refused).
  std::vector<runtime::worker_info> workers;
  /// Post-pinning outcome per mesh producer worker.  Empty when the
  /// run produced on the calling thread (producers == 1).
  std::vector<runtime::worker_info> producer_workers;

  /// Aggregate service rate: the sum of each shard's requests divided
  /// by the time that shard spent inside lookup_batch on its own
  /// thread.  This is the pipeline's capacity — what N independent
  /// shard workers sustain with a core each; on a machine with >= N
  /// cores the wall rate converges to it.
  double aggregate_requests_per_second() const;
  /// Delivered wall-clock rate: merged requests / wall_seconds —
  /// bounded by the physical core count, unlike the aggregate rate.
  double wall_requests_per_second() const;
};

/// Runs an event stream through N shard workers with double-buffered
/// batch hand-off, against epoch-published snapshots of one table.
class sharded_emulator {
 public:
  /// Builds the producer-owned table.  Called once, with shard index 0.
  using table_factory =
      std::function<std::unique_ptr<dynamic_table>(std::size_t shard)>;

  sharded_emulator(table_factory factory, sharded_config config = {});

  /// Runs the event stream to completion across all shards and merges
  /// the per-shard statistics.  Worker exceptions are rethrown here.
  /// One emulator instance runs one workload: the table keeps its
  /// end-of-run state (inspect via table()), so replaying a stream
  /// whose join burst repeats ids would fault on the second run —
  /// construct a fresh emulator per workload instead.
  sharded_report run(std::span<const event> events);

  /// Shard a request id is routed to.
  std::size_t shard_of(request_id request) const {
    return router_->shard_of(request);
  }

  /// The producer's single mutable table: the same object for every
  /// shard index.  Valid for the emulator's lifetime.
  /// \pre shard < shards().
  dynamic_table& table(std::size_t shard);

  /// The pinned worker pool the pipeline runs on: workers [0, shards)
  /// are the shard decoders, and — when producers > 1 — workers
  /// [shards, shards + producers) are the mesh producers, all placed
  /// by config().placement.  Exposed so callers can report delivered
  /// placement (bench drivers record cpu/node per shard).
  const runtime::worker_pool& pool() const noexcept { return *pool_; }

 private:
  sharded_config config_;
  std::unique_ptr<runtime::worker_pool> pool_;
  std::unique_ptr<stream_router> router_;  // decodes on pool_'s [0, shards)
};

}  // namespace hdhash
