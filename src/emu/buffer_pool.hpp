/// \file buffer_pool.hpp
/// \brief Standalone batch-buffer recycle pool — the memory round-trip
/// that pairs with the shard engine's ingest rings.
///
/// A stream_router decode loop returns each drained batch's memory with
/// `recycle()`, and the router's sessions — the emulator's producers and
/// the TCP server's io loops alike — refill recycled buffers (`take()`)
/// instead of allocating fresh ones.  Because the shard worker
/// *allocated and wrote* those buffers first (the router's first-touch
/// generation at start()), their pages live on the worker's own NUMA
/// node — the producer streams into remote memory once, the worker
/// decodes out of local memory every batch.
///
/// Kept apart from the ring on purpose: hand-off (emu/spsc_ring.hpp)
/// and recycling are separate concerns with different threading shapes
/// — the router's mesh has M sessions pushing into N×M rings but only N
/// per-shard pools, shared by every session feeding that shard.
///
/// The pool is one mutex-guarded LIFO stack.  Its whole point is the
/// cross-thread recycle→take round-trip (the worker recycles, a
/// different thread — the producer — takes), so a buffer is visible
/// process-wide the moment it is recycled, and the most recently
/// drained buffer, whose pages are still warm in the consumer's cache
/// hierarchy, comes back first.  The lock is never on the per-item hot
/// path — one lock per *batch*, amortized over `batch_capacity`
/// requests.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace hdhash {

/// Shared LIFO pool of recycled batch buffers.
template <typename Batch>
class buffer_pool {
 public:
  /// Consumer → producer: returns a drained batch's buffers for reuse.
  void recycle(Batch&& batch) {
    const std::lock_guard lock(mutex_);
    parked_.push_back(std::move(batch));
  }

  /// Producer: takes the most recently recycled buffer into `out`;
  /// false when the pool is empty (callers then construct fresh).
  bool take(Batch& out) {
    const std::lock_guard lock(mutex_);
    if (parked_.empty()) {
      return false;
    }
    out = std::move(parked_.back());
    parked_.pop_back();
    return true;
  }

  /// Buffers currently parked in the pool (approximate while threads
  /// are recycling).
  std::size_t size() const {
    const std::lock_guard lock(mutex_);
    return parked_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Batch> parked_;
};

}  // namespace hdhash
