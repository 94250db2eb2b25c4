/// \file buffer_pool.hpp
/// \brief Standalone batch-buffer recycle pool — the memory round-trip
/// that pairs with every ingest ring.
///
/// The consumer returns each drained batch's memory with `recycle()`,
/// and the producer refills recycled buffers (`take()`) instead of
/// allocating fresh ones.  Because the consumer *allocated and wrote*
/// those buffers first (the worker pool's first-touch init job), their
/// pages live on the consumer's own NUMA node — the producer streams
/// into remote memory once, the worker decodes out of local memory
/// every batch.
///
/// Kept apart from the ring on purpose: hand-off (emu/spsc_ring.hpp)
/// and recycling are separate concerns with different threading shapes
/// — a mesh has M producers pushing into N×M rings but only N per-shard
/// pools, shared by every producer feeding that shard.
///
/// Since the memory layer landed this is a thin adapter over
/// mem::slab_cache with per-thread magazines *disabled*: the pool's
/// whole point is the cross-thread recycle→take round-trip (the worker
/// recycles, a different thread — the producer — takes), so buffers
/// must be visible process-wide the moment they are recycled, in LIFO
/// order (the most recently drained buffer is the one whose pages are
/// still warm in the consumer's cache hierarchy).  The depot is
/// mutex-guarded but never on the per-item hot path — one lock per
/// *batch*, amortized over `batch_capacity` requests.
#pragma once

#include <cstddef>
#include <utility>

#include "mem/slab_cache.hpp"

namespace hdhash {

/// Shared LIFO pool of recycled batch buffers (a magazine-less
/// mem::slab_cache).
template <typename Batch>
class buffer_pool {
 public:
  /// Consumer → producer: returns a drained batch's buffers for reuse.
  void recycle(Batch&& batch) { cache_.recycle(std::move(batch)); }

  /// Producer: takes a recycled buffer if one is available.
  bool take(Batch& out) { return cache_.take(out); }

  /// Buffers currently parked in the pool (approximate while threads
  /// are recycling).
  std::size_t size() const { return cache_.size(); }

  /// Recycle-traffic counters of the underlying cache.
  mem::slab_stats stats() const { return cache_.stats(); }

 private:
  // magazine_capacity = 0: pure shared depot — see the file comment.
  mem::slab_cache<Batch> cache_{mem::slab_options{.magazine_capacity = 0}};
};

}  // namespace hdhash
