/// \file sharded_emulator.hpp
/// \brief Sharded, double-buffered emulation pipeline — the multi-core
/// analogue of the paper's GPU batching (Section 5.1), scaled toward the
/// ROADMAP's "millions of users" target.
///
/// The generated event stream is partitioned across N shards by
/// hash(request_id) % N; each shard worker decodes its requests on a
/// dedicated thread of a pinned runtime::worker_pool (placement policy
/// per sharded_config::placement — compact by default, so workers sit
/// on distinct CPUs in NUMA-node order and first-touch their channel
/// buffers and scratch on their own node), fed through an M-producer ×
/// N-shard ingest mesh (emu/ingest.hpp) of bounded shard channels —
/// lock-free SPSC rings by default (emu/spsc_ring.hpp), the mutex
/// reference under sharded_config::channel.  While a worker decodes
/// batch i, its producers are already filling batch i+1 — the software
/// analogue of overlapping GPU transfer with compute (double
/// buffering); with `producers` > 1 the encode/partition side itself
/// fans out across M pinned producer threads (snapshot mode only), so
/// ingest scales with cores instead of flat-lining at one producer's
/// rate.  Membership state reaches the workers in one of two modes
/// (membership_mode):
///
///  * snapshot (default) — the producer owns the single mutable table
///    behind a snapshot_publisher (emu/snapshot.hpp); join/leave apply
///    once, each membership epoch publishes one immutable copy-on-write
///    snapshot, and workers resolve every request against the snapshot
///    of the epoch it arrived under.  Churn is O(1) per event and table
///    memory is ~one replica regardless of shard count.
///  * replicated — the PR-2 pipeline: join/leave broadcast to every
///    shard, each worker owning a full table replica.  Kept as the
///    comparison baseline and the shadow-oracle conformance reference.
///
/// Shadow oracles (sharded_config::shadow) work in both modes: each
/// request is answered twice, once by the (possibly fault-injected)
/// table under test and once by a pristine clone taken before the
/// sharded_config::corrupt hook ran, and disagreements count as
/// mismatches.  In snapshot mode the oracle is a *second*
/// snapshot_publisher wrapping the clone: the membership sequencer
/// applies every event to both publishers in lockstep, so each epoch
/// carries a (corrupted snapshot, pristine shadow snapshot) pair and
/// workers account mismatches against exactly the epoch a request
/// arrived under — same counters, none of replicated mode's O(shards)
/// membership cost.
///
/// Determinism: requests are routed to exactly one shard and observe
/// exactly the membership state that preceded them in the stream (per
/// replica in replicated mode, per epoch snapshot in snapshot mode), so
/// the merged load histogram is bit-identical to a single-shard (or
/// plain emulator) reference run over the same events — the property
/// the ctest suite asserts and BENCH_sharded_emulator.json records.
/// In snapshot mode one sequencer applies every join/leave to the
/// publisher in stream order and binds each request to the epoch it
/// arrived under.  A single producer sequences and routes in one pass:
/// each request goes to its shard as soon as its epoch is published, so
/// the shards decode while membership is still being applied, and each
/// epoch is freed by the worker that drains its last segment.
/// Multi-producer runs keep the guarantee because membership is
/// *sequenced before the fan-out*: a pre-scan on the calling thread
/// runs the sequencer over the whole stream and tags each contiguous
/// request run with its epoch snapshot; the producers then split the
/// request stream by global index range and each request still
/// resolves against exactly the epoch it arrived under, in whatever
/// order the mesh delivers it (the load histogram is
/// order-insensitive).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "emu/channel.hpp"
#include "emu/emulator.hpp"
#include "emu/event.hpp"
#include "emu/snapshot.hpp"
#include "runtime/worker_pool.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

/// How membership state is shared with the shard workers.
enum class membership_mode : std::uint8_t {
  /// One immutable epoch-published snapshot shared by all shards
  /// (copy-on-write against the producer's single mutable table).
  snapshot,
  /// One full table replica per shard, join/leave broadcast to all.
  replicated,
};

/// Configuration of the sharded pipeline.
struct sharded_config {
  /// Worker shards (>= 1); each runs one thread (and, in replicated
  /// mode, owns one table replica).
  std::size_t shards = 4;
  /// Producer threads feeding the mesh (>= 1).  1 (default) produces
  /// on the calling thread, sequencing membership and routing requests
  /// in one pass over the stream; M > 1 pre-scans the stream to
  /// sequence membership first, then adds M pinned producer workers to
  /// the pool (placed after the shard workers by the same placement
  /// policy), each owning one channel per shard and encoding a
  /// contiguous slice of the request stream.  Snapshot mode only:
  /// replicated membership needs stream-order broadcast, which a
  /// fan-out producer cannot preserve.
  std::size_t producers = 1;
  /// Events buffered per shard before a batch is handed to its worker
  /// (the paper's batch size of 256 per shard).
  std::size_t buffer_capacity = 256;
  /// Shard-channel implementation of the ingest mesh (emu/channel.hpp):
  /// lock-free SPSC rings by default, overridable per run here or
  /// process-wide with HDHASH_CHANNEL=ring|mutex.  Never changes
  /// results — only how batches are handed over.
  channel_kind channel = default_channel_kind();
  /// Bounded per-lane channel depth: batches in flight per
  /// (producer, shard) pair before push blocks (backpressure).  2 is
  /// the classic double buffer (rings round up to a power of two).
  std::size_t channel_depth = 2;
  /// How membership reaches the workers (see membership_mode).
  membership_mode membership = membership_mode::snapshot;
  /// Measure per-sub-batch request time on each worker's own CPU clock
  /// (timing_mode::thread_cpu), so the per-shard service rate is not
  /// polluted by preemption when shards outnumber cores.
  bool timing = true;
  /// Answer every request against a pristine shadow oracle as well and
  /// count disagreements (run_stats::mismatches).  In snapshot mode the
  /// oracle is one epoch-published clone of the producer table shared
  /// by all shards; in replicated mode each shard replays against its
  /// own pristine clone.  Both modes count bit-identically.
  bool shadow = false;
  /// Fault-injection hook, called once per *mutable* table after the
  /// shadow oracles (if any) are cloned and before any event applies:
  /// with the producer-owned table (shard 0) in snapshot mode, with
  /// each shard replica in replicated mode.  The shadows stay pristine
  /// — copy-on-write un-shares corrupted state on first write — so the
  /// mismatch counters measure exactly the injected corruption.  For
  /// mode-conformant counts the hook must corrupt identically whatever
  /// the shard index (seed the injector off the table, not the shard).
  std::function<void(dynamic_table& table, std::size_t shard)> corrupt;
  /// How shard workers are placed on the host topology (runtime layer,
  /// src/runtime/).  Default: `compact` — pin where the platform
  /// supports it, one worker per allowed CPU in NUMA-node order —
  /// overridable process-wide with HDHASH_PIN; workers degrade to
  /// unpinned (policy `none` behaviour) wherever the affinity call is
  /// unavailable or refused.  Placement never changes assignments:
  /// the merged histogram is bit-identical under every policy.
  runtime::placement_policy placement = runtime::default_placement_policy();
  /// Salt of the request partition hash.
  std::uint64_t partition_seed = 0x5A4D'ED01;
};

/// Result of one sharded run.
struct sharded_report {
  /// Statistics merged across shards.  joins/leaves count *logical*
  /// membership events (each stream event once, however it was
  /// delivered — broadcast or epoch publication), so the merged report
  /// is comparable field-for-field with a single-table run.
  run_stats merged;
  /// Raw per-shard statistics.  In replicated mode joins/leaves count
  /// per-shard applications of the broadcast events; in snapshot mode
  /// they are zero (membership is applied once, by the producer).
  std::vector<run_stats> per_shard;
  /// End-to-end pipeline wall time (produce + decode, overlapped).
  double wall_seconds = 0.0;
  /// Resident table bytes at end of run: the sum over all replicas in
  /// replicated mode; the producer table plus the live snapshot's
  /// non-shared bookkeeping in snapshot mode (~independent of the
  /// shard count).
  std::size_t table_memory_bytes = 0;
  /// Snapshots actually published (snapshot mode; 0 otherwise).  At
  /// most one per membership epoch that a request observed.
  std::size_t snapshots_published = 0;
  /// Placement policy the worker pool ran under.
  runtime::placement_policy placement = runtime::placement_policy::none;
  /// Post-pinning outcome per shard worker (cpu/node are -1 and pinned
  /// false wherever affinity was skipped or refused).
  std::vector<runtime::worker_info> workers;
  /// Post-pinning outcome per mesh producer worker.  Empty when the
  /// run produced on the calling thread (producers == 1).
  std::vector<runtime::worker_info> producer_workers;
  /// Shard-channel implementation the mesh ran on.
  channel_kind channel = channel_kind::ring;

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
/// batch hand-off — against epoch-published snapshots of one table
/// (snapshot mode) or one single-owner replica per shard (replicated
/// mode).
class sharded_emulator {
 public:
  /// Builds a table instance.  In replicated mode it is called once per
  /// shard (with the shard index); in snapshot mode once, with shard 0,
  /// for the producer-owned table.  Every call must use identical
  /// parameters (the determinism guarantee needs all instances to map
  /// requests identically).
  using table_factory =
      std::function<std::unique_ptr<dynamic_table>(std::size_t shard)>;

  sharded_emulator(table_factory factory, sharded_config config = {});

  /// Runs the event stream to completion across all shards and merges
  /// the per-shard statistics.  Worker exceptions are rethrown here.
  /// One emulator instance runs one workload: the tables keep their
  /// end-of-run state (inspect via table()), so replaying a stream
  /// whose join burst repeats ids would fault on the second run —
  /// construct a fresh emulator per workload instead.
  sharded_report run(std::span<const event> events);

  /// Shard a request id is routed to.
  std::size_t shard_of(request_id request) const;

  const sharded_config& config() const noexcept { return config_; }
  std::size_t shards() const noexcept { return config_.shards; }
  std::size_t producers() const noexcept { return config_.producers; }
  /// The shard's table replica (replicated mode) or the producer's
  /// single mutable table (snapshot mode, same object for every shard).
  /// Valid for the emulator's lifetime.  \pre shard < shards().
  dynamic_table& table(std::size_t shard);

  /// The pinned worker pool the pipeline runs on: workers [0, shards)
  /// are the shard decoders, and — when producers > 1 — workers
  /// [shards, shards + producers) are the mesh producers, all placed
  /// by config().placement.  Exposed so callers can report delivered
  /// placement (bench drivers record cpu/node per shard).
  const runtime::worker_pool& pool() const noexcept { return *pool_; }

 private:
  sharded_report run_replicated(std::span<const event> events);
  sharded_report run_snapshot(std::span<const event> events);

  sharded_config config_;
  std::vector<std::unique_ptr<dynamic_table>> tables_;  // replicated mode
  std::unique_ptr<snapshot_publisher> publisher_;       // snapshot mode
  std::unique_ptr<runtime::worker_pool> pool_;          // one worker/shard
};

}  // namespace hdhash
