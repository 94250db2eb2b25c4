#include "table/weighted_rendezvous.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace hdhash {

weighted_rendezvous_table::weighted_rendezvous_table(const hash64& hash,
                                                     std::uint64_t seed)
    : hash_(&hash), seed_(seed) {}

std::size_t weighted_rendezvous_table::find_index(
    server_id server) const noexcept {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].server == server) {
      return i;
    }
  }
  return entries_.size();
}

void weighted_rendezvous_table::join(server_id server, double weight) {
  HDHASH_REQUIRE(!contains(server), "server already in the pool");
  HDHASH_REQUIRE(weight > 0.0, "weight must be positive");
  entries_.push_back(entry{server, weight});
}

double weighted_rendezvous_table::weight(server_id server) const {
  const std::size_t index = find_index(server);
  HDHASH_REQUIRE(index != entries_.size(), "server not in the pool");
  return entries_[index].weight;
}

void weighted_rendezvous_table::leave(server_id server) {
  const std::size_t index = find_index(server);
  HDHASH_REQUIRE(index != entries_.size(), "server not in the pool");
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
}

server_id weighted_rendezvous_table::lookup(request_id request) const {
  HDHASH_REQUIRE(!entries_.empty(), "lookup on an empty pool");
  server_id best = entries_.front().server;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const entry& e : entries_) {
    // Map the 64-bit hash into (0, 1); the +1/+2 offsets exclude the
    // endpoints so the logarithm is finite.
    const double u =
        (static_cast<double>(hash_->hash_pair(e.server, request, seed_)) +
         1.0) *
        0x1.0p-64;
    const double score = -e.weight / std::log(u);
    if (score > best_score ||
        (score == best_score && e.server < best)) {
      best = e.server;
      best_score = score;
    }
  }
  return best;
}

table_stats weighted_rendezvous_table::stats() const {
  table_stats s;
  s.memory_bytes = entries_.size() * sizeof(entry);
  // One hash + one log per pool member per lookup.
  s.expected_lookup_cost = 2.0 * static_cast<double>(entries_.size());
  return s;
}

bool weighted_rendezvous_table::contains(server_id server) const {
  return find_index(server) != entries_.size();
}

std::vector<server_id> weighted_rendezvous_table::servers() const {
  std::vector<server_id> result;
  result.reserve(entries_.size());
  for (const entry& e : entries_) {
    result.push_back(e.server);
  }
  return result;
}

std::unique_ptr<dynamic_table> weighted_rendezvous_table::clone() const {
  return std::make_unique<weighted_rendezvous_table>(*this);
}

std::vector<memory_region> weighted_rendezvous_table::fault_regions() {
  if (entries_.empty()) {
    return {};
  }
  return {memory_region{
      std::as_writable_bytes(std::span(entries_.data(), entries_.size())),
      "server-entries"}};
}

}  // namespace hdhash
