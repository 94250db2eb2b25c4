/// \file stream_router.hpp
/// \brief Streaming shard router: the sharded emulator's epoch-published
/// snapshot pipeline, re-cut as a long-running service.
///
/// `sharded_emulator::run()` consumes one finite event stream and
/// returns.  A socket front-end needs the same machinery — partition
/// requests by hash(id) % shards, hand per-shard batches through
/// bounded channels to pinned decode workers, resolve each batch
/// against the epoch snapshot it arrived under — but as a *resident*
/// engine: start once, accept route batches from a fixed set of io
/// threads (one session each), deliver each batch's answers through a
/// completion callback, and stop by draining.  This class is that engine; `net::net_server`
/// is its first client.
///
/// Ingest runs on the shared mesh API (emu/ingest.hpp): the router
/// owns a sessions × shards `ingest_mesh` of bounded lock-free SPSC
/// rings.  Each *session* (`open_session(i)`, one per io thread) owns a
/// private mesh row, so an io loop pushes its slices into
/// single-producer rings with no lock anywhere on the hot path.  Every
/// batch enters through a session; there is no shared submit path.
///
/// Concurrency contract:
///  * join()/leave() are thread-safe; a session's submit() is bound to
///    one thread at a time (it is that row's SPSC producer).
///  * Batches submitted through one session complete their shard-local
///    slices in submission order (rings are FIFO per lane), so
///    per-connection reply ordering reduces to a FIFO of tickets on the
///    submitter.  Ordering across different sessions is not defined.
///  * `on_complete` runs on whichever shard worker finishes the
///    batch's last slice — it must be cheap and non-blocking (post a
///    wakeup, never write sockets or take long-held locks).
///  * After stop(), a session's submit() fails loudly
///    (hdhash::channel_closed or precondition_error) — quiesce
///    submitters first, the way net_server joins its io loops before
///    stopping the router.
///
/// Determinism: a batch's requests all resolve against the snapshot of
/// the membership epoch current at submit time, and every membership
/// event is applied before any later-submitted batch acquires its
/// snapshot.  A single submitter that flushes its open batch before
/// each join/leave therefore reproduces exactly the plain emulator's
/// "every request sees the table state it arrived under" semantics —
/// the bit-identity the net e2e test asserts over a real socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

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
    /// Producer sessions (>= 1): submitters (io threads) that each own
    /// a private single-producer mesh row via open_session().
    std::size_t sessions = 1;
    /// Bounded per-lane ring depth: how many batches may queue on one
    /// (session, shard) lane before submit() blocks (backpressure to
    /// the io layer).
    std::size_t channel_depth = 4;
    /// Salt of the request partition hash (the sharded emulator's
    /// default, so both pipelines split streams identically).
    std::uint64_t partition_seed = 0x5A4D'ED01;
  };

  /// One submitted routing ticket: `requests` in arrival order,
  /// `answers[i]` the server for `requests[i]` once `done` turns true.
  /// The router holds the shared_ptr until the last shard slice
  /// completes, so a ticket outlives any connection that dies mid-batch.
  struct route_batch {
    std::vector<request_id> requests;
    std::vector<server_id> answers;
    /// Invoked exactly once, by the shard worker that completes the
    /// last slice, after `done` is set.  Cleared afterwards (any
    /// captured owner references are released then).
    std::function<void()> on_complete;
    /// All slices decoded; answers[] fully written (release/acquire
    /// paired with the completing worker's store).
    std::atomic<bool> done{false};
    /// A shard slice faulted (empty-pool lookup, table precondition):
    /// answers are not trustworthy; the submitter should report an
    /// error instead of routing replies.
    std::atomic<bool> failed{false};

   private:
    friend class stream_router;
    std::atomic<std::size_t> pending_slices{0};
  };

  /// A producer-side handle over one private mesh row.  Obtained from
  /// open_session(); cheap to copy, but only one thread may drive a
  /// given session at a time (it is the row's SPSC producer).  The
  /// router must outlive every session.
  class session {
   public:
    session() = default;

    /// Partitions the ticket's requests by shard, stamps the current
    /// epoch snapshot, and pushes one slice per covered shard into this
    /// session's own lock-free lanes (blocking when a lane is full —
    /// backpressure).  Empty tickets complete inline on the calling
    /// thread.  \pre the router is started and not stopped;
    /// batch != nullptr.
    void submit(std::shared_ptr<route_batch> batch) {
      router_->submit_to_row(row_, std::move(batch));
    }

   private:
    friend class stream_router;
    session(stream_router* router, std::size_t row)
        : router_(router), row_(row) {}

    stream_router* router_ = nullptr;
    std::size_t row_ = 0;
  };

  /// Takes ownership of the (single, producer-owned) table and runs
  /// decode loops on `pool` workers [first_worker, first_worker +
  /// config.shards).  start() must be called before the first submit().
  /// \pre table != nullptr; config.shards >= 1; config.sessions >= 1;
  /// the worker range is within the pool.
  stream_router(std::unique_ptr<dynamic_table> table,
                runtime::worker_pool& pool, std::size_t first_worker,
                config cfg);
  /// Same, with a default-constructed config (gcc rejects `= {}` as a
  /// default argument while the nested aggregate is incomplete).
  stream_router(std::unique_ptr<dynamic_table> table,
                runtime::worker_pool& pool, std::size_t first_worker)
      : stream_router(std::move(table), pool, first_worker, config{}) {}

  /// Stops (drains) if still running.
  ~stream_router();

  stream_router(const stream_router&) = delete;
  stream_router& operator=(const stream_router&) = delete;

  /// Launches one decode loop per shard on the configured pool workers.
  /// Idempotent once running.
  void start();

  /// Closes every mesh lane and waits until all decode loops have
  /// drained and exited — every batch submitted before stop() completes
  /// (its on_complete fires) before stop() returns.  After stop(),
  /// submit() fails loudly.  Idempotent.
  void stop();

  /// Applies a join to the producer table and opens a new membership
  /// epoch.  Thread-safe; table preconditions (duplicate id, capacity)
  /// propagate as hdhash::precondition_error with the table unchanged.
  void join(server_id server, double weight = 1.0);

  /// Applies a leave (thread-safe; unknown ids throw, table unchanged).
  void leave(server_id server);

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
  /// Requests accepted by the sessions so far.
  std::uint64_t requests_routed() const noexcept {
    return requests_routed_.load(std::memory_order_relaxed);
  }
  /// Batches accepted by the sessions so far.
  std::uint64_t batches_routed() const noexcept {
    return batches_routed_.load(std::memory_order_relaxed);
  }
  /// Epoch snapshots actually published (≤ epoch() + 1).
  std::size_t published_epochs() const;
  /// Resident table bytes (producer table + live snapshot bookkeeping).
  std::size_t table_memory_bytes() const;

 private:
  struct shard_slice;
  struct shard_scratch;

  void submit_to_row(std::size_t row, std::shared_ptr<route_batch> batch);

  config config_;
  runtime::worker_pool& pool_;
  std::size_t first_worker_;
  std::unique_ptr<snapshot_publisher> publisher_;
  std::unique_ptr<ingest_mesh<shard_slice>> mesh_;
  std::vector<std::unique_ptr<shard_scratch>> scratch_;

  // Producer mutex: guards the publisher (join/leave/current) so a
  // snapshot is always consistent with the membership order observed
  // by submitters.
  mutable std::mutex producer_mutex_;
  std::atomic<std::size_t> members_{0};
  std::atomic<std::uint64_t> epoch_count_{0};
  std::atomic<std::uint64_t> requests_routed_{0};
  std::atomic<std::uint64_t> batches_routed_{0};
  bool started_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace hdhash
