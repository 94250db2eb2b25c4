/// \file ingest.hpp
/// \brief The ingest fabric: an M-producer × N-shard mesh of lock-free
/// SPSC rings, pushed through `lane(p, s)` and popped through one
/// consumer-side handle per column (`shard_consumer`).
///
/// The shard engine, `stream_router`, hands every batch over through
/// it — one row per router session (the sharded emulator's producers,
/// the TCP server's io loops), one column per shard decode loop:
///
/// ```
///   producer 0 ──► lane(0,0) lane(0,1) … lane(0,N-1)
///   producer 1 ──► lane(1,0) lane(1,1) … lane(1,N-1)
///      …               │         │
///   producer M-1 ─► lane(M-1,0)  │
///                      ▼         ▼
///        shard 0: consumer scans column 0
///        shard 1: consumer scans column 1   …
/// ```
///
/// Each (producer, shard) pair owns a dedicated bounded `spsc_ring`
/// (emu/spsc_ring.hpp), so the single-producer/single-consumer
/// discipline holds *by construction*: producer p is the only pusher of
/// row p, and shard s's consumer (one worker-pool thread) is the only
/// popper of column s.  No lock, no CAS, no shared cursor anywhere on
/// the hot path.
///
/// Ordering: FIFO per ring — batches from one producer reach a shard
/// in push order.  Batches from *different* producers are unordered
/// relative to each other (the consumer scans its column round-robin);
/// producers that need cross-row ordering sequence it out of band,
/// the way the sharded emulator's multi-producer runs bind every
/// request to its membership epoch before the producers fan out.
///
/// Shutdown: each producer closes its own row when its stream is done
/// (`close_row(p)`, on every exit path — a dying producer must still
/// close, or its consumers spin forever); a consumer's `pop()` returns
/// false once *every* lane in its column is closed and drained.
/// `mesh.close()` force-closes everything (the router's stop()).
///
/// Buffers recycle through the lanes themselves: a pop leaves the
/// consumer's drained item in the slot it empties, and the next push
/// into that slot hands it back to the producer (emu/spsc_ring.hpp).
/// A drained item may thus return through a different lane of its
/// column from the one it arrived on.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "emu/spsc_ring.hpp"
#include "util/require.hpp"

namespace hdhash {

template <typename T>
class shard_consumer;

/// The M×N ring fabric.  Construct once per pipeline run; producer p
/// pushes through `lane(p, s)` and closes its row with `close_row(p)`,
/// and each shard worker pops through its `consumer(s)`.  The mesh
/// must outlive every handle.
template <typename T>
class ingest_mesh {
 public:
  /// \pre producers >= 1, shards >= 1, capacity >= 1.
  ingest_mesh(std::size_t producers, std::size_t shards, std::size_t capacity) {
    HDHASH_REQUIRE(producers >= 1, "need at least one producer");
    HDHASH_REQUIRE(shards >= 1, "need at least one shard");
    producers_ = producers;
    shards_ = shards;
    lanes_.reserve(producers * shards);
    for (std::size_t i = 0; i < producers * shards; ++i) {
      lanes_.push_back(std::make_unique<spsc_ring<T>>(capacity));
    }
  }

  std::size_t producers() const noexcept { return producers_; }
  std::size_t shards() const noexcept { return shards_; }

  /// The (producer, shard) ring.  SPSC discipline: only producer
  /// `producer`'s thread pushes, only shard `shard`'s thread pops.
  spsc_ring<T>& lane(std::size_t producer, std::size_t shard) {
    HDHASH_REQUIRE(producer < producers_ && shard < shards_,
                   "mesh lane out of range");
    return *lanes_[producer * shards_ + shard];
  }

  /// Ends producer `producer`'s stream: closes every lane in its row,
  /// waking the shard consumers.  Call on every exit path — a producer
  /// that stops without closing leaves its consumers waiting forever.
  void close_row(std::size_t producer) {
    for (std::size_t s = 0; s < shards_; ++s) {
      lane(producer, s).close();
    }
  }

  /// Consumer-side handle for one mesh column (see shard_consumer).
  shard_consumer<T> consumer(std::size_t shard);

  /// Force-closes every lane (stop paths; safe from any thread).
  void close() {
    for (auto& lane : lanes_) {
      lane->close();
    }
  }

 private:
  std::size_t producers_ = 0;
  std::size_t shards_ = 0;
  // Producer-major; behind pointers because a ring is immovable.
  std::vector<std::unique_ptr<spsc_ring<T>>> lanes_;
};

/// One shard's ingest surface: pops batches from all M producer lanes
/// of its mesh column, round-robin for fairness.  Exactly one thread
/// may use a given consumer (that thread is the SPSC consumer of the
/// whole column).
template <typename T>
class shard_consumer {
 public:
  shard_consumer() = default;

  /// Non-blocking pop: one fair scan over the column.  `closed` only
  /// when *every* lane is closed and drained.
  pop_status try_pop(T& out) {
    const std::size_t producers = mesh_->producers();
    std::size_t closed = 0;
    for (std::size_t i = 0; i < producers; ++i) {
      const std::size_t p = (cursor_ + i) % producers;
      switch (mesh_->lane(p, shard_).try_pop(out)) {
        case pop_status::ok:
          // Resume the next scan at the following lane so one chatty
          // producer cannot starve the rest of the column.
          cursor_ = (p + 1) % producers;
          return pop_status::ok;
        case pop_status::closed:
          ++closed;
          break;
        case pop_status::empty:
          break;
      }
    }
    return closed == producers ? pop_status::closed : pop_status::empty;
  }

  /// Blocking pop; returns false once the whole column is closed and
  /// drained — the decode loop's termination condition.
  bool pop(T& out) {
    detail::channel_backoff backoff;
    for (;;) {
      switch (try_pop(out)) {
        case pop_status::ok:
          return true;
        case pop_status::closed:
          return false;
        case pop_status::empty:
          backoff.pause();
          break;
      }
    }
  }

 private:
  friend class ingest_mesh<T>;
  shard_consumer(ingest_mesh<T>* mesh, std::size_t shard)
      : mesh_(mesh), shard_(shard) {}

  ingest_mesh<T>* mesh_ = nullptr;
  std::size_t shard_ = 0;
  std::size_t cursor_ = 0;
};

template <typename T>
shard_consumer<T> ingest_mesh<T>::consumer(std::size_t shard) {
  HDHASH_REQUIRE(shard < shards_, "mesh shard out of range");
  return shard_consumer<T>(this, shard);
}

}  // namespace hdhash
