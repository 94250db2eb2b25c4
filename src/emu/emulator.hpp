/// \file emulator.hpp
/// \brief The emulation framework tying generator → buffer → hash-table
/// module together (paper Section 5.1), with optional shadow-oracle
/// mismatch accounting and batch wall-time measurement.
///
/// The paper's hash-table module reads requests from a 256-event
/// buffer, the batch size that amortized its GPU transfers.  Here the
/// generator's stream is already in memory, so the buffer is a window:
/// the table module takes consecutive `buffer_capacity`-event spans of
/// the stream, in order, and each span delimits the batches whose wall
/// time the efficiency experiment measures.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "emu/event.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

/// Aggregate statistics of one emulator run.
struct run_stats {
  std::size_t requests = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  /// Request sub-batches fed through lookup_batch (a buffered batch
  /// contributes one per membership-delimited request segment).
  std::size_t batches = 0;
  /// Requests whose answer differed from the pristine shadow table
  /// (only counted when the shadow oracle is enabled).
  std::size_t mismatches = 0;
  /// Requests answered with an identifier not in the pool at all (a
  /// corrupted id escaping the table) — a subset of mismatches.
  std::size_t invalid_assignments = 0;
  /// Wall time spent inside request lookups, measured per sub-batch.
  double total_request_ns = 0.0;
  /// Requests per (possibly corrupted) returned server id.
  std::unordered_map<server_id, std::uint64_t> load;

  double avg_request_ns() const {
    return requests == 0 ? 0.0
                         : total_request_ns / static_cast<double>(requests);
  }
  double mismatch_rate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(mismatches) / static_cast<double>(requests);
  }

  /// Accumulates another run's statistics into this one (counters and
  /// request wall time add up; load histograms merge per server).
  run_stats& merge(const run_stats& other);
};

/// Merges per-shard (or per-run) statistics into one aggregate report —
/// the reduction the sharded emulator applies to its workers' results.
run_stats merge(std::span<const run_stats> parts);

/// How request time is accumulated into run_stats::total_request_ns.
enum class timing_mode : std::uint8_t {
  off,         ///< no measurement
  wall,        ///< steady_clock per sub-batch (single-threaded runs)
  /// Per-thread CPU time per sub-batch: on an oversubscribed machine a
  /// worker's wall clock includes preemption by its sibling shards, so
  /// shard service time is metered on the thread's own CPU clock
  /// (POSIX CLOCK_THREAD_CPUTIME_ID; on platforms without one this
  /// degrades to wall time, and per-shard service rates then include
  /// preemption again).
  thread_cpu,
};

/// Current reading of the configured request clock, as integer
/// nanoseconds (subtracting in the integer domain keeps sub-batch
/// deltas exact even when the clock's epoch offset is large).  Shared
/// by the plain and sharded emulators' per-sub-batch metering.
std::int64_t timing_now_ns(timing_mode timing);

/// Applies one buffered event batch to `table` (and `shadow`, when
/// non-null) in arrival order: membership events segment the batch, and
/// each request sub-batch is answered through lookup_batch against the
/// exact table state it observed.  A request that arrived before a
/// join/leave is therefore never resolved against the post-churn table
/// (and vice versa), so mismatch/disruption accounting is faithful to
/// the stream order regardless of how events were buffered.  Request
/// time is measured per sub-batch under `timing`; stats.batches counts
/// the lookup_batch calls made.
void apply_event_batch(dynamic_table& table, dynamic_table* shadow,
                       std::span<const event> batch, run_stats& stats,
                       timing_mode timing);

/// Feeds an event stream into a dynamic table in buffer-sized batches.
///
/// Mirrors the paper's emulator: the hash-table module takes the stream
/// `buffer_capacity` events at a time (the last batch may be shorter)
/// and applies each batch with apply_event_batch(); request wall time
/// is measured per sub-batch so the clock overhead amortizes the way
/// the paper's GPU batching did.
class emulator {
 public:
  /// \param table            the table under test (borrowed).
  /// \param buffer_capacity  batch size; the paper used 256.
  /// \pre buffer_capacity > 0.
  explicit emulator(dynamic_table& table, std::size_t buffer_capacity = 256);

  /// Clones the table's *current* state as a pristine oracle.  After this,
  /// join/leave events are applied to both copies, and each request is
  /// answered by both — differences count as mismatches.  Populate the
  /// table, call this, then corrupt the original: the clone must be
  /// taken before any corruption so it stays pristine.
  void enable_shadow();

  /// Enables/disables batch wall-time measurement (on by default).
  void set_timing(bool enabled) noexcept { timing_ = enabled; }

  /// Runs the event stream to completion and returns the statistics.
  run_stats run(std::span<const event> events);

  dynamic_table& table() noexcept { return table_; }
  const dynamic_table* shadow() const noexcept { return shadow_.get(); }

 private:
  dynamic_table& table_;
  std::unique_ptr<dynamic_table> shadow_;
  std::size_t buffer_capacity_;
  bool timing_ = true;
};

}  // namespace hdhash
