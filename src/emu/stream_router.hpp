/// \file stream_router.hpp
/// \brief The shard engine under both front ends — the sharded
/// emulator and the TCP server: one resident epoch-snapshot pipeline.
///
/// The router owns the single mutable table behind a snapshot_publisher
/// and runs one decode loop per shard on a pinned runtime::worker_pool.
/// Producers reach it through *sessions*: session i owns row i of a
/// sessions × shards `ingest_mesh` of bounded lock-free SPSC rings
/// (emu/ingest.hpp), so no lock sits on the hot path.  Requests are
/// partitioned by shard_of(), hash(id) % shards.
///
/// What a shard decodes is an `epoch_batch`: requests split into
/// segments at the membership epochs they arrived under, each answered
/// by `lookup_batch` on exactly that epoch's snapshot.  Batches recycle
/// through the rings themselves: a push swaps the full batch with its
/// slot and hands the session back the batch a decode loop drained
/// there one lap earlier (emu/spsc_ring.hpp), so a warm pipeline
/// refills the same buffers.  A session keeps one open batch per shard:
/// `sharded_emulator::run()` routes each request into it
/// (open_segment(), flush()), and `net::net_server`'s io loops submit()
/// `route_batch` tickets, split into one segment per covered shard; the
/// worker that decodes a ticket segment writes its answers back and
/// completes the ticket.  Each decode loop keeps its shard's run_stats
/// (shard_stats()).
///
/// Concurrency contract:
///  * join()/leave()/current() are thread-safe (one producer mutex); a
///    session is bound to one thread at a time (it is its row's SPSC
///    producer).
///  * Batches pushed through one session reach each shard in push
///    order (rings are FIFO per lane), so per-connection reply
///    ordering reduces to a FIFO of tickets on the submitter.  Ordering
///    across different sessions is not defined.
///  * `on_complete` runs on whichever shard worker finishes the
///    ticket's last segment — it must be cheap and non-blocking (post a
///    wakeup, never write sockets or take long-held locks).
///  * After stop(), pushing through a session fails loudly
///    (hdhash::channel_closed or precondition_error) — quiesce
///    producers first, the way net_server joins its io loops before
///    stopping the router.
///
/// Determinism: a segment resolves against the snapshot it was stamped
/// with, and every membership event is applied before any later
/// current() call.  A single producer that stamps each request with the
/// epoch current at its arrival — over a socket, one that flushes its
/// open ticket before each join/leave — reproduces exactly the plain
/// emulator's "every request sees the table state it arrived under"
/// semantics, the bit-identity the emulator and net tests assert.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "emu/emulator.hpp"
#include "emu/ingest.hpp"
#include "emu/snapshot.hpp"
#include "runtime/worker_pool.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

class stream_router {
 public:
  struct config {
    /// Decode workers (>= 1); worker pool slots
    /// [first_worker, first_worker + shards) are occupied for the
    /// router's whole start()..stop() span.
    std::size_t shards = 1;
    /// Producer sessions (>= 1): producers (the emulator's producers,
    /// the server's io threads) that each own a private single-producer
    /// mesh row via open_session().
    std::size_t sessions = 1;
    /// Bounded per-lane ring depth: how many batches may queue on one
    /// (session, shard) lane before a push blocks (backpressure).
    std::size_t channel_depth = 4;
  };

  /// One submitted routing ticket: `requests` in arrival order,
  /// `answers[i]` the server for `requests[i]` once `done` turns true.
  /// The router holds the shared_ptr until the last shard segment
  /// completes, so a ticket outlives any connection that dies mid-batch.
  struct route_batch {
    std::vector<request_id> requests;
    std::vector<server_id> answers;
    /// Invoked exactly once, by the shard worker that completes the
    /// last segment, after `done` is set.  Cleared afterwards (any
    /// captured owner references are released then).
    std::function<void()> on_complete;
    /// All segments decoded; answers[] fully written (release/acquire
    /// paired with the completing worker's store).
    std::atomic<bool> done{false};
    /// A segment faulted (empty-pool lookup, table precondition):
    /// answers are not trustworthy; the submitter should report an
    /// error instead of routing replies.
    std::atomic<bool> failed{false};

   private:
    friend class stream_router;
    std::atomic<std::size_t> pending_segments{0};
  };

  /// One epoch's run of a shard batch: requests that arrived under
  /// `snap` and must be resolved against exactly that table state.
  struct epoch_segment {
    std::shared_ptr<const table_snapshot> snap;
    /// The same epoch of a pristine shadow oracle, or null.  Each
    /// answer is checked against it and disagreements count as
    /// mismatches.
    std::shared_ptr<const table_snapshot> shadow_snap;
    /// The ticket these requests came from, or null.  A ticket segment
    /// writes answer i to `ticket->answers[positions[i]]`.
    std::shared_ptr<route_batch> ticket;
    std::vector<request_id> requests;
    std::vector<std::uint32_t> positions;
  };

  /// A shard batch, segmented at the membership epochs its requests
  /// arrived under: without churn a single segment, one undivided
  /// slot-dedup window.  Segments are reused in place across recycles
  /// (only segments[0..used) are live): reset() drops the references
  /// but keeps every vector's capacity, so a recycled batch refills
  /// without reallocating.
  struct epoch_batch {
    std::vector<epoch_segment> segments;
    std::size_t used = 0;

    epoch_segment& append() {
      if (used == segments.size()) {
        segments.emplace_back();
      }
      return segments[used++];
    }
    bool empty() const { return used == 0; }

    /// Releases the epoch and ticket references (so retired epochs free
    /// promptly) and clears requests and positions, keeping capacity.
    void reset() {
      for (std::size_t i = 0; i < used; ++i) {
        epoch_segment& segment = segments[i];
        segment.snap.reset();
        segment.shadow_snap.reset();
        segment.ticket.reset();
        segment.requests.clear();
        segment.positions.clear();
      }
      used = 0;
    }
  };

  /// A producer-side handle over one private mesh row and its open
  /// batch per shard.  Obtained from open_session(); only one thread
  /// may drive a given session at a time (it is the row's SPSC
  /// producer).  The router must outlive every session.
  class session {
   public:
    session() = default;

    /// Partitions the ticket's requests by shard — one segment per
    /// covered shard, stamped with the current epoch snapshot — and
    /// flushes them into this session's lanes.  Empty tickets complete
    /// inline on the calling thread.  \pre the router is started and
    /// not stopped; batch != nullptr.
    void submit(std::shared_ptr<route_batch> batch);

    /// The segment of `shard`'s open batch that takes the next request
    /// of epoch `snap`: the last one when it has that epoch, else a new
    /// one stamped (`snap`, `shadow_snap`).
    epoch_segment& open_segment(
        std::size_t shard, const std::shared_ptr<const table_snapshot>& snap,
        const std::shared_ptr<const table_snapshot>& shadow_snap = nullptr) {
      epoch_batch& batch = open_[shard];
      if (!batch.empty() && batch.segments[batch.used - 1].snap == snap) {
        return batch.segments[batch.used - 1];
      }
      epoch_segment& segment = batch.append();
      segment.snap = snap;
      segment.shadow_snap = shadow_snap;
      return segment;
    }

    /// Hands `shard`'s open batch, if any, to its decode loop; the
    /// drained batch the lane hands back becomes the new open batch.
    /// Blocks while the lane is full (backpressure) and throws
    /// channel_closed once the router stopped.
    void flush(std::size_t shard);

    /// Ends this session's stream: closes its row, so the decode loops
    /// can drain and exit before stop() (producers that run on other
    /// threads than stop()'s caller).
    void close() { router_->mesh_->close_row(row_); }

   private:
    friend class stream_router;
    session(stream_router* router, std::size_t row)
        : router_(router), row_(row), open_(router->shards()) {}

    stream_router* router_ = nullptr;
    std::size_t row_ = 0;
    std::vector<epoch_batch> open_;
  };

  /// Takes ownership of the (single, producer-owned) table and runs
  /// decode loops on `pool` workers [first_worker, first_worker +
  /// config.shards).  start() must be called before the first push.
  /// \pre table != nullptr; config.shards >= 1; config.sessions >= 1;
  /// the worker range is within the pool.
  stream_router(std::unique_ptr<dynamic_table> table,
                runtime::worker_pool& pool, std::size_t first_worker,
                config cfg);

  /// Stops (drains) if still running; a fault stop() would rethrow is
  /// dropped.
  ~stream_router();

  stream_router(const stream_router&) = delete;
  stream_router& operator=(const stream_router&) = delete;

  /// Launches one decode loop per shard.  Idempotent once running.
  void start();

  /// Closes every mesh lane and waits until all decode loops have
  /// drained and exited — every batch pushed before stop() is decoded
  /// (and every ticket's on_complete has run) before stop() returns.
  /// Rethrows the first pool-job exception, then the first fault of a
  /// ticket-less segment.  Idempotent.
  void stop();

  /// Applies a join to the producer table and opens a new membership
  /// epoch.  Thread-safe; table preconditions (duplicate id, capacity)
  /// propagate as hdhash::precondition_error with the table unchanged.
  void join(server_id server, double weight = 1.0);

  /// Applies a leave (thread-safe; unknown ids throw, table unchanged).
  void leave(server_id server);

  /// Snapshot of the current epoch, published on first use
  /// (thread-safe).
  std::shared_ptr<const table_snapshot> current();

  /// Hands out the private producer row `index`.  Valid for the
  /// router's lifetime; one driving thread at a time per session.
  /// \pre index < config.sessions.
  session open_session(std::size_t index);

  /// Shard a request id is routed to (pure).
  std::size_t shard_of(request_id request) const;

  std::size_t shards() const noexcept { return config_.shards; }
  /// Servers currently in the pool (joins − leaves); the io layer
  /// rejects ROUTE with an empty pool before paying for a submit.
  std::size_t members() const noexcept {
    return members_.load(std::memory_order_relaxed);
  }
  /// Membership epochs opened so far.
  std::uint64_t epoch() const noexcept {
    return epoch_count_.load(std::memory_order_relaxed);
  }
  /// Requests in the tickets submitted so far.
  std::uint64_t requests_routed() const noexcept {
    return requests_routed_.load(std::memory_order_relaxed);
  }
  /// Tickets submitted so far.
  std::uint64_t batches_routed() const noexcept {
    return batches_routed_.load(std::memory_order_relaxed);
  }
  /// Epoch snapshots actually published (≤ epoch() + 1).
  std::size_t published_epochs() const;
  /// Resident table bytes (producer table + live snapshot bookkeeping).
  std::size_t table_memory_bytes() const;

  /// The producer-owned mutable table, for set-up (fault injection,
  /// shadow clones) and end-of-run inspection.  Not synchronized:
  /// use it only while no join() or leave() runs.
  dynamic_table& table() noexcept { return publisher_->table(); }

  /// What shard `shard`'s decode loop answered: requests, lookup_batch
  /// calls, per-server load, shadow mismatches and, for ticket-less
  /// segments, lookup time on the worker's thread-CPU clock.  Read it
  /// after stop().  \pre shard < shards().
  const run_stats& shard_stats(std::size_t shard) const;

 private:
  /// State one decode loop owns.  Cache-line aligned so two workers'
  /// counters never share a line.
  struct alignas(64) shard_state {
    run_stats stats;
    std::exception_ptr error;  ///< first fault of a ticket-less segment
  };

  void decode_loop(std::size_t shard);

  config config_;
  runtime::worker_pool& pool_;
  std::size_t first_worker_;
  std::unique_ptr<snapshot_publisher> publisher_;
  std::unique_ptr<ingest_mesh<epoch_batch>> mesh_;
  std::vector<shard_state> shard_states_;

  // Producer mutex: guards the publisher (join/leave/current) so a
  // snapshot is always consistent with the membership order observed
  // by producers.
  mutable std::mutex producer_mutex_;
  std::atomic<std::size_t> members_{0};
  std::atomic<std::uint64_t> epoch_count_{0};
  std::atomic<std::uint64_t> requests_routed_{0};
  std::atomic<std::uint64_t> batches_routed_{0};
  bool started_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace hdhash
