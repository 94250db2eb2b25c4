/// \file spsc_ring.hpp
/// \brief Lock-free bounded single-producer/single-consumer ring — the
/// one hand-off channel of every ingest pipeline (sharded emulator,
/// stream router, net front-end) and the fabric of the M×N ingest mesh
/// (emu/ingest.hpp).
///
/// The channel contract, asserted by the conformance and torture suite
/// (tests/emu_channel_test.cpp):
///
///  * **bounded + backpressure** — `push()` blocks once `capacity`
///    items are queued, so a producer that outruns its consumer stalls
///    instead of ballooning memory (for the socket front-end this
///    propagates all the way back to the TCP receive window);
///  * **FIFO** — items pop in push order, which is what keeps
///    per-connection (and per-stream) reply ordering trivial;
///  * **loud close** — after `close()`, `push()` throws
///    `channel_closed` (including a push already *blocked* on a full
///    ring when close arrives — it wakes and throws instead of
///    deadlocking), and `try_pop()` drains the remaining items, then
///    reports `closed` forever;
///  * **non-blocking probes** — `try_push`/`try_pop` return a status
///    (`ok`/`full|empty`/`closed`) and never block or throw;
///  * **slots recycle** — a push and a pop each *swap* with their slot
///    instead of moving into it.  A pop leaves the consumer's previous
///    item in the slot it empties, and the push that next fills that
///    slot hands it to the producer, so a buffer the consumer drained
///    comes back to the producer one lap later with its allocation.
///
/// Design (the classic bounded SPSC queue, cf. cachegrand's
/// `ring_bounded_queue_spsc` and Rigtorp's SPSC ring):
///
///  * **power-of-two capacity** — cursors are free-running
///    std::size_t counters; `index & mask` replaces the modulo, and
///    the full/empty tests (`tail - head > mask`, `head == tail`) stay
///    correct across wraparound because unsigned subtraction is
///    modular.
///  * **cache-line padding** — the producer cursor, the consumer
///    cursor, and each side's *cached copy* of the peer cursor live on
///    their own destructive-interference-sized lines, so a push never
///    writes the line a pop is spinning on (no false sharing between
///    the two hot threads).
///  * **acquire/release publication** — the producer writes the slot,
///    then publishes with `tail.store(release)`; the consumer observes
///    the slot only after `tail.load(acquire)`.  The mirror pair covers
///    what a pop leaves behind: `head.store(release)` after the swap,
///    and the producer reuses the slot only after `head.load(acquire)`.
///    That is the entire synchronization story: no locks, no CAS, no
///    fences beyond the two pairs.
///  * **batched cursor refresh (cached cursors)** — the expensive
///    cross-core load of the peer's cursor happens only when the local
///    cached copy says the ring *looks* full (producer) or empty
///    (consumer).  In steady streaming each side re-reads the peer
///    cursor once per `capacity` operations instead of once per
///    operation.
///
/// Close semantics: `close()` is an atomic flag any thread may set.  A
/// `try_push` that already read a free slot may complete concurrently
/// with `close()` — the contract is that producers stop pushing before
/// or upon observing the close, and every blocking `push()` parked on a
/// full ring wakes and throws `channel_closed`.  `try_pop()` keeps
/// draining queued items after close and reports `closed` only once
/// the ring is empty — nothing pushed before close is ever lost.
///
/// Strictly single-producer/single-consumer: one thread pushes, one
/// thread pops.  The ingest mesh gives every producer its own ring per
/// shard precisely so this holds by construction.  Consumers block in
/// the mesh's `shard_consumer::pop` (emu/ingest.hpp), producers in
/// `push()`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace hdhash {

/// Thrown by push() when the ring is (or becomes, while the push is
/// blocked on a full ring) closed: pushing into a closed channel is a
/// pipeline-protocol violation and must fail loudly, never block or
/// silently drop.
class channel_closed : public precondition_error {
 public:
  channel_closed() : precondition_error("push into a closed channel") {}
};

/// Non-blocking push outcome.
enum class push_status : std::uint8_t {
  ok,      ///< the item was swapped into the ring
  full,    ///< no slot free; the item is untouched — retry later
  closed,  ///< the ring is closed; the item is untouched
};

/// Non-blocking pop outcome.
enum class pop_status : std::uint8_t {
  ok,      ///< an item was swapped out
  empty,   ///< nothing queued right now (ring still open)
  closed,  ///< closed *and* drained — no item will ever arrive again
};

namespace detail {

/// Producer/consumer wait loop: spin briefly (the common case — the
/// peer is one batch away), then yield, then park in short sleeps.
/// Each blocking call starts a fresh ladder.
class channel_backoff {
 public:
  void pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
      return;  // busy-spin: the peer is usually mid-batch
    }
    if (spins_ < kSpinLimit + kYieldLimit) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

 private:
  static constexpr int kSpinLimit = 64;
  static constexpr int kYieldLimit = 16;
  int spins_ = 0;
};

/// Rounds up to the next power of two (minimum 1).
constexpr std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// Destructive-interference stride for the cursor padding.  A fixed 64
/// rather than std::hardware_destructive_interference_size: the value
/// is identical on every target this builds for, and the constant
/// avoids GCC's -Winterference-size ABI-stability warning in a public
/// header.
inline constexpr std::size_t kCacheLine = 64;

}  // namespace detail

/// Bounded lock-free SPSC ring.  Capacity is rounded up to a power of
/// two; the default of 4 gives the producer two batches of slack beyond
/// the classic double buffer.  The atomics make a ring immovable, so
/// containers hold rings behind pointers.
template <typename T>
class spsc_ring {
 public:
  /// \pre capacity >= 1 (rounded up to the next power of two).
  explicit spsc_ring(std::size_t capacity = 4)
      : mask_(detail::round_up_pow2(capacity) - 1), slots_(mask_ + 1) {
    HDHASH_REQUIRE(capacity >= 1, "channel capacity must be positive");
  }

  /// Non-blocking push.  On `ok`, `item` and its slot swap: the ring
  /// takes the item and hands back what the slot held — a
  /// default-constructed T on the first lap, afterwards whatever the
  /// consumer's pop left there.  On `full` or `closed`, `item` is
  /// untouched.  Producer thread only.
  push_status try_push(T& item) {
    if (closed_.load(std::memory_order_acquire)) {
      return push_status::closed;
    }
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      // Looks full through the cached cursor: pay the cross-core load
      // once, then run off the refreshed copy for up to `capacity`
      // more pushes (the batched-cursor-refresh optimization).
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        return push_status::full;
      }
    }
    std::swap(slots_[tail & mask_], item);
    tail_.store(tail + 1, std::memory_order_release);
    return push_status::ok;
  }

  /// Blocks (spin → yield → park) while the ring is full, then swaps
  /// `item` with its slot as try_push() does; throws channel_closed
  /// once the ring is closed — a waiter parked on a full ring wakes and
  /// throws rather than deadlocking.
  void push(T& item) {
    detail::channel_backoff backoff;
    for (;;) {
      switch (try_push(item)) {
        case push_status::ok:
          return;
        case push_status::closed:
          throw channel_closed();
        case push_status::full:
          backoff.pause();
          break;
      }
    }
  }

  /// Non-blocking pop.  On `ok`, `out` and the slot swap: `out` takes
  /// the item, and the slot keeps `out`'s previous value for the push
  /// that next fills it.  `closed` means closed *and* drained.
  /// Consumer thread only.
  pop_status try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) {
        // Order matters: re-check emptiness *after* observing the
        // closed flag, or a close between the two loads could drop a
        // final item.
        if (!closed_.load(std::memory_order_acquire)) {
          return pop_status::empty;
        }
        tail_cache_ = tail_.load(std::memory_order_acquire);
        if (head == tail_cache_) {
          return pop_status::closed;
        }
      }
    }
    std::swap(out, slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return pop_status::ok;
  }

  /// Atomic close; safe from any thread.  Parked pushers wake and
  /// throw; the consumer drains what was already published, then
  /// try_pop() reports `closed` forever.
  void close() { closed_.store(true, std::memory_order_release); }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Usable slot count (the rounded-up power of two).
  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  /// Producer cursor: next slot to write.  Written by the producer
  /// (release), read by the consumer (acquire).
  alignas(detail::kCacheLine) std::atomic<std::size_t> tail_{0};
  /// Consumer cursor: next slot to read.  Written by the consumer
  /// (release), read by the producer (acquire).
  alignas(detail::kCacheLine) std::atomic<std::size_t> head_{0};
  /// Producer-owned cached copy of head_ (refreshed only when the ring
  /// looks full) — keeps the hot push path free of cross-core loads.
  alignas(detail::kCacheLine) std::size_t head_cache_ = 0;
  /// Consumer-owned cached copy of tail_ (refreshed only when the ring
  /// looks empty).
  alignas(detail::kCacheLine) std::size_t tail_cache_ = 0;
  alignas(detail::kCacheLine) std::atomic<bool> closed_{false};
};

}  // namespace hdhash
