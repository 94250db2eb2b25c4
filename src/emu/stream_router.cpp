#include "emu/stream_router.hpp"

#include <utility>

#include "hashing/splitmix_hash.hpp"
#include "util/require.hpp"

namespace hdhash {

/// One shard's slice of a submitted ticket: the indices (positions in
/// the owner's request vector) this shard resolves, against `snap`.
struct stream_router::shard_slice {
  std::shared_ptr<const table_snapshot> snap;
  std::shared_ptr<stream_router::route_batch> owner;
  std::vector<std::uint32_t> indices;
};

/// Decode-loop scratch, single-owner by the worker-pool FIFO contract.
struct stream_router::shard_scratch {
  std::vector<request_id> ids;
  std::vector<server_id> answers;
};

stream_router::stream_router(std::unique_ptr<dynamic_table> table,
                             runtime::worker_pool& pool,
                             std::size_t first_worker, config cfg)
    : config_(cfg), pool_(pool), first_worker_(first_worker) {
  HDHASH_REQUIRE(table != nullptr, "stream router needs a table");
  HDHASH_REQUIRE(config_.shards >= 1, "need at least one shard");
  HDHASH_REQUIRE(config_.sessions >= 1, "need at least one session");
  HDHASH_REQUIRE(config_.channel_depth >= 1,
                 "shard channel depth must be positive");
  HDHASH_REQUIRE(first_worker_ + config_.shards <= pool_.size(),
                 "shard worker range exceeds the pool");
  publisher_ = std::make_unique<snapshot_publisher>(std::move(table));
  // One private row per session.
  mesh_ = std::make_unique<ingest_mesh<shard_slice>>(
      config_.sessions, config_.shards, config_.channel_depth);
  scratch_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    scratch_.push_back(std::make_unique<shard_scratch>());
  }
}

stream_router::~stream_router() { stop(); }

void stream_router::start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shard_scratch* scratch = scratch_[s].get();
    ingest_mesh<shard_slice>* mesh = mesh_.get();
    pool_.submit(first_worker_ + s, [mesh, scratch, s] {
      shard_consumer<shard_slice> consumer = mesh->consumer(s);
      shard_slice slice;
      while (consumer.pop(slice)) {
        route_batch& owner = *slice.owner;
        try {
          const dynamic_table& table = slice.snap->table();
          scratch->ids.clear();
          for (const std::uint32_t index : slice.indices) {
            scratch->ids.push_back(owner.requests[index]);
          }
          scratch->answers.resize(scratch->ids.size());
          table.lookup_batch(scratch->ids, scratch->answers);
          for (std::size_t i = 0; i < slice.indices.size(); ++i) {
            owner.answers[slice.indices[i]] = scratch->answers[i];
          }
        } catch (...) {
          // A faulted slice (empty pool raced a leave, a table
          // precondition) must never wedge the pipeline: mark the
          // ticket failed and still count the slice down, so the
          // submitter gets its completion and can reply with an error.
          owner.failed.store(true, std::memory_order_relaxed);
        }
        // Drop the slice's references before completing: once
        // on_complete fires the ticket owner may free everything, and
        // the snapshot must not be kept alive by a worker's scratch.
        std::shared_ptr<route_batch> ticket = std::move(slice.owner);
        slice.snap.reset();
        slice.indices.clear();
        if (ticket->pending_slices.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          ticket->done.store(true, std::memory_order_release);
          std::function<void()> complete = std::move(ticket->on_complete);
          ticket->on_complete = nullptr;
          if (complete) {
            complete();
          }
        }
      }
    });
  }
}

void stream_router::stop() {
  if (!started_ || stopped_.exchange(true)) {
    return;
  }
  mesh_->close();
  // The decode jobs exit once every lane of their column drains; every
  // ticket submitted before stop() completes during this wait.
  // wait_idle() also covers any *other* jobs on the shared pool (the
  // net server stops its io loops first for exactly this reason) and
  // rethrows the first job exception.
  pool_.wait_idle();
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

std::size_t stream_router::shard_of(request_id request) const {
  return static_cast<std::size_t>(
      splitmix_hash::mix(request ^ config_.partition_seed) % config_.shards);
}

stream_router::session stream_router::open_session(std::size_t index) {
  HDHASH_REQUIRE(index < config_.sessions,
                 "session index out of range — size config.sessions first");
  return session(this, index);
}

void stream_router::submit_to_row(std::size_t row,
                                  std::shared_ptr<route_batch> batch) {
  HDHASH_REQUIRE(batch != nullptr, "cannot submit a null batch");
  HDHASH_REQUIRE(started_ && !stopped_.load(std::memory_order_relaxed),
                 "stream router is not running");
  const std::size_t count = batch->requests.size();
  if (count == 0) {
    batch->done.store(true, std::memory_order_release);
    std::function<void()> complete = std::move(batch->on_complete);
    batch->on_complete = nullptr;
    if (complete) {
      complete();
    }
    return;
  }
  batch->answers.assign(count, 0);

  // Partition the arrival-order requests into per-shard index lists.
  std::vector<std::vector<std::uint32_t>> slices(config_.shards);
  for (std::size_t i = 0; i < count; ++i) {
    slices[shard_of(batch->requests[i])].push_back(
        static_cast<std::uint32_t>(i));
  }
  std::size_t covered = 0;
  for (const auto& indices : slices) {
    covered += indices.empty() ? 0 : 1;
  }
  // The slice count must be in place before any worker can reach zero.
  batch->pending_slices.store(covered, std::memory_order_relaxed);

  // Snapshot under the producer mutex: the batch observes exactly the
  // membership state current at submission, never a half-applied event.
  std::shared_ptr<const table_snapshot> snap;
  {
    const std::lock_guard lock(producer_mutex_);
    snap = publisher_->current();
  }
  requests_routed_.fetch_add(count, std::memory_order_relaxed);
  batches_routed_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    if (slices[s].empty()) {
      continue;
    }
    shard_slice slice;
    slice.snap = snap;
    slice.owner = batch;
    slice.indices = std::move(slices[s]);
    // Blocking push = backpressure; throws channel_closed if stop()
    // raced this submit (the loud post-close contract).
    mesh_->lane(row, s).push(std::move(slice));
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

}  // namespace hdhash
