#include "emu/snapshot.hpp"

#include "mem/arena_allocator.hpp"
#include "util/require.hpp"

namespace hdhash {

table_snapshot::table_snapshot(std::uint64_t epoch,
                               std::shared_ptr<const dynamic_table> table)
    : epoch_(epoch), table_(std::move(table)) {
  HDHASH_REQUIRE(table_ != nullptr, "snapshot needs a table");
}

std::size_t table_snapshot::marginal_bytes() const {
  const table_stats stats = table_->stats();
  return stats.memory_bytes - stats.shared_bytes;
}

snapshot_publisher::snapshot_publisher(std::unique_ptr<dynamic_table> table)
    : table_(std::move(table)), arena_(mem::local_arena()) {
  HDHASH_REQUIRE(table_ != nullptr, "publisher needs a table");
}

void snapshot_publisher::join(server_id server, double weight) {
  table_->join(server, weight);
  ++epoch_;
  // Lazy publication: drop the stale snapshot now, build the new one
  // only when a request actually observes this epoch — consecutive
  // membership events then collapse into one publication.
  current_.reset();
}

void snapshot_publisher::leave(server_id server) {
  table_->leave(server);
  ++epoch_;
  current_.reset();
}

std::shared_ptr<const table_snapshot> snapshot_publisher::current() {
  if (current_ == nullptr) {
    // allocate_shared puts the epoch object and its control block in
    // one arena stride; a drained epoch's block parks on the arena free
    // list and the next publication here reuses it.
    current_ = std::allocate_shared<table_snapshot>(
        mem::arena_allocator<table_snapshot>(arena_), epoch_,
        table_->snapshot());
    ++published_;
  }
  return current_;
}

std::size_t snapshot_publisher::memory_bytes() const {
  std::size_t bytes = table_->stats().memory_bytes;
  if (current_ != nullptr) {
    bytes += current_->marginal_bytes();
  }
  return bytes;
}

std::size_t snapshot_publisher::marginal_bytes() const {
  const table_stats stats = table_->stats();
  std::size_t bytes = stats.memory_bytes - stats.shared_bytes;
  if (current_ != nullptr) {
    bytes += current_->marginal_bytes();
  }
  return bytes;
}

}  // namespace hdhash
