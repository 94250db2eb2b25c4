#include "emu/stream_router.hpp"

#include <utility>

#include "hashing/splitmix_hash.hpp"
#include "util/require.hpp"

namespace hdhash {

namespace {

/// Salt of the request partition hash.
constexpr std::uint64_t kPartitionSeed = 0x5A4D'ED01;

/// Sets `done`, then runs and releases `on_complete`.
void complete(stream_router::route_batch& ticket) {
  ticket.done.store(true, std::memory_order_release);
  std::function<void()> on_complete = std::move(ticket.on_complete);
  ticket.on_complete = nullptr;
  if (on_complete) {
    on_complete();
  }
}

}  // namespace

stream_router::stream_router(std::unique_ptr<dynamic_table> table,
                             runtime::worker_pool& pool,
                             std::size_t first_worker, config cfg)
    : config_(cfg),
      pool_(pool),
      first_worker_(first_worker),
      shard_states_(cfg.shards) {
  HDHASH_REQUIRE(table != nullptr, "stream router needs a table");
  HDHASH_REQUIRE(config_.shards >= 1, "need at least one shard");
  HDHASH_REQUIRE(config_.sessions >= 1, "need at least one session");
  HDHASH_REQUIRE(config_.channel_depth >= 1,
                 "shard channel depth must be positive");
  HDHASH_REQUIRE(first_worker_ + config_.shards <= pool_.size(),
                 "shard worker range exceeds the pool");
  publisher_ = std::make_unique<snapshot_publisher>(std::move(table));
  // One private row per session.
  mesh_ = std::make_unique<ingest_mesh<epoch_batch>>(
      config_.sessions, config_.shards, config_.channel_depth);
}

stream_router::~stream_router() {
  try {
    stop();
  } catch (...) {
    // Call stop() directly to observe a worker fault.
  }
}

void stream_router::start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (std::size_t s = 0; s < config_.shards; ++s) {
    pool_.submit(first_worker_ + s, [this, s] { decode_loop(s); });
  }
}

void stream_router::decode_loop(std::size_t shard) {
  shard_state& state = shard_states_[shard];
  run_stats& stats = state.stats;
  shard_consumer<epoch_batch> consumer = mesh_->consumer(shard);
  std::vector<server_id> answers;
  std::vector<server_id> truth;
  epoch_batch batch;
  while (consumer.pop(batch)) {
    for (std::size_t i = 0; i < batch.used; ++i) {
      epoch_segment& segment = batch.segments[i];
      std::shared_ptr<route_batch> ticket = std::move(segment.ticket);
      try {
        const std::size_t count = segment.requests.size();
        answers.resize(count);
        // A ticket segment is a few requests, cheaper to look up than to
        // time: a thread-CPU clock read is a system call.
        const bool timed = ticket == nullptr;
        const std::int64_t start =
            timed ? timing_now_ns(timing_mode::thread_cpu) : 0;
        segment.snap->table().lookup_batch(segment.requests, answers);
        if (timed) {
          stats.total_request_ns += static_cast<double>(
              timing_now_ns(timing_mode::thread_cpu) - start);
        }
        ++stats.batches;
        stats.requests += count;
        const dynamic_table* shadow =
            segment.shadow_snap ? &segment.shadow_snap->table() : nullptr;
        if (shadow != nullptr) {
          truth.resize(count);
          shadow->lookup_batch(segment.requests, truth);
        }
        for (std::size_t r = 0; r < count; ++r) {
          ++stats.load[answers[r]];
          if (ticket != nullptr) {
            ticket->answers[segment.positions[r]] = answers[r];
          }
          if (shadow != nullptr && answers[r] != truth[r]) {
            ++stats.mismatches;
            if (!shadow->contains(answers[r])) {
              ++stats.invalid_assignments;
            }
          }
        }
      } catch (...) {
        // A fault (an empty pool raced a leave, a table precondition)
        // never wedges the pipeline: a ticket is marked failed and
        // still completes, so its submitter can reply with an error;
        // any other fault is kept for stop() to rethrow.
        if (ticket != nullptr) {
          ticket->failed.store(true, std::memory_order_relaxed);
        } else if (!state.error) {
          state.error = std::current_exception();
        }
      }
      // The segment's references go before the ticket completes: once
      // on_complete runs its owner may free everything, and no worker
      // may keep the epoch alive.
      if (ticket != nullptr) {
        segment.snap.reset();
        if (ticket->pending_segments.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          complete(*ticket);
        }
      }
    }
    // The next pop leaves this batch in the slot it empties, for the
    // producer's next push there; it must carry no epoch or ticket.
    batch.reset();
  }
}

void stream_router::stop() {
  if (!started_ || stopped_.exchange(true)) {
    return;
  }
  mesh_->close();
  // The decode jobs exit once every lane of their column drains; every
  // ticket pushed before stop() completes during this wait.
  // wait_idle() also covers any *other* jobs on the shared pool (the
  // net server stops its io loops first for exactly this reason) and
  // rethrows the first job exception.
  pool_.wait_idle();
  for (const shard_state& state : shard_states_) {
    if (state.error) {
      std::rethrow_exception(state.error);
    }
  }
}

void stream_router::join(server_id server, double weight) {
  {
    const std::lock_guard lock(producer_mutex_);
    publisher_->join(server, weight);  // throws with the table unchanged
  }
  members_.fetch_add(1, std::memory_order_relaxed);
  epoch_count_.fetch_add(1, std::memory_order_relaxed);
}

void stream_router::leave(server_id server) {
  {
    const std::lock_guard lock(producer_mutex_);
    publisher_->leave(server);
  }
  members_.fetch_sub(1, std::memory_order_relaxed);
  epoch_count_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const table_snapshot> stream_router::current() {
  const std::lock_guard lock(producer_mutex_);
  return publisher_->current();
}

std::size_t stream_router::shard_of(request_id request) const {
  return static_cast<std::size_t>(splitmix_hash::mix(request ^ kPartitionSeed) %
                                  config_.shards);
}

stream_router::session stream_router::open_session(std::size_t index) {
  HDHASH_REQUIRE(index < config_.sessions,
                 "session index out of range — size config.sessions first");
  return session(this, index);
}

void stream_router::session::submit(std::shared_ptr<route_batch> batch) {
  HDHASH_REQUIRE(batch != nullptr, "cannot submit a null batch");
  HDHASH_REQUIRE(router_->started_ &&
                     !router_->stopped_.load(std::memory_order_relaxed),
                 "stream router is not running");
  const std::size_t count = batch->requests.size();
  if (count == 0) {
    complete(*batch);
    return;
  }
  batch->answers.assign(count, 0);
  // The whole ticket resolves against the epoch current at submission,
  // never a half-applied event.
  const std::shared_ptr<const table_snapshot> snap = router_->current();
  std::size_t covered = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const request_id request = batch->requests[i];
    epoch_segment& segment = open_segment(router_->shard_of(request), snap);
    if (segment.ticket == nullptr) {
      segment.ticket = batch;
      ++covered;
    }
    segment.requests.push_back(request);
    segment.positions.push_back(static_cast<std::uint32_t>(i));
  }
  // The segment count must be in place before any worker can reach
  // zero.
  batch->pending_segments.store(covered, std::memory_order_relaxed);
  router_->requests_routed_.fetch_add(count, std::memory_order_relaxed);
  router_->batches_routed_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t s = 0; s < open_.size(); ++s) {
    flush(s);
  }
}

void stream_router::session::flush(std::size_t shard) {
  if (!open_[shard].empty()) {
    router_->mesh_->lane(row_, shard).push(open_[shard]);
  }
}

std::size_t stream_router::published_epochs() const {
  const std::lock_guard lock(producer_mutex_);
  return publisher_->published_epochs();
}

std::size_t stream_router::table_memory_bytes() const {
  const std::lock_guard lock(producer_mutex_);
  return publisher_->memory_bytes();
}

const run_stats& stream_router::shard_stats(std::size_t shard) const {
  HDHASH_REQUIRE(shard < config_.shards, "shard index out of range");
  return shard_states_[shard].stats;
}

}  // namespace hdhash
