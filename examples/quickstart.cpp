/// Quickstart: the 60-second tour of the hdhash public API (v2).
///
/// Build a hyperdimensional hash table by name with make_table, add
/// weighted servers, route a request batch, watch how little remaps when
/// the pool changes, and peek at the noise margin that makes the table
/// robust.
#include <cstdio>
#include <vector>

#include "core/hd_table.hpp"
#include "exp/factory.hpp"

int main() {
  using namespace hdhash;

  // 1. Configure the table: 10,000-bit hypervectors on a 64-node
  //    circle.  The circle capacity bounds the pool size (the paper
  //    requires n > k).
  table_options options;
  options.hd.dimension = 10'000;
  options.hd.capacity = 64;
  const auto table_ptr = make_table("hd", options);
  dynamic_table& table = *table_ptr;

  // 2. Add servers.  In production these ids would be hashes of
  //    endpoint addresses.  Weights express relative capacity: server
  //    1005 is a double-size machine and takes ~2x the traffic via a
  //    replicated circle slot.
  const std::vector<server_id> pool = {1001, 1002, 1003, 1004, 1005};
  for (const server_id s : pool) {
    table.join(s, s == 1005 ? 2.0 : 1.0);
  }
  std::printf("pool size: %zu servers (server 1005 at weight %.0f)\n",
              table.server_count(), table.weight(1005));

  // 3. Route a request batch.  Every assignment is an associative-
  //    memory query — the request's circle hypervector against each
  //    server's — and the batch form answers the whole block in one
  //    word-parallel sweep of the item memory.
  const std::vector<request_id> burst = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<server_id> routed = table.lookup_batch(burst);
  std::printf("\nrequest -> server\n");
  for (std::size_t i = 0; i < burst.size(); ++i) {
    std::printf("  %5llu -> %llu\n",
                static_cast<unsigned long long>(burst[i]),
                static_cast<unsigned long long>(routed[i]));
  }

  // 3b. Introspection: live memory footprint and expected lookup cost.
  const table_stats stats = table.stats();
  std::printf("\ntable state: %zu bytes live, ~%.0f word-ops per lookup\n",
              stats.memory_bytes, stats.expected_lookup_cost);

  // 4. Minimal disruption: join a server and count remapped requests
  //    (two batched snapshots around the membership change).
  constexpr request_id kSample = 2000;
  std::vector<request_id> sample;
  sample.reserve(kSample);
  for (request_id r = 0; r < kSample; ++r) {
    sample.push_back(r);
  }
  const std::vector<server_id> before = table.lookup_batch(sample);
  table.join(1006);
  const std::vector<server_id> after = table.lookup_batch(sample);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    moved += after[i] != before[i] ? 1 : 0;
  }
  std::printf("\nafter joining server 1006: %zu of %llu requests moved "
              "(%.1f%%; ideal 1/6 = 16.7%%)\n",
              moved, static_cast<unsigned long long>(kSample),
              100.0 * static_cast<double>(moved) / kSample);

  // 5. Robustness: the decode margin of a lookup, in bits.  A memory
  //    error pattern smaller than half the lattice step per row can
  //    never change an assignment.  lookup_detailed is HD-specific, so
  //    downcast from the generic interface.
  const auto& hd = dynamic_cast<const hd_table&>(table);
  const auto detail = hd.lookup_detailed(42);
  std::printf("\nrequest 42 decode: server %llu, similarity %.0f / %zu, "
              "margin %.0f bits (lattice step %zu)\n",
              static_cast<unsigned long long>(detail.key), detail.best_score,
              hd.config().dimension, detail.margin(),
              hd.encoder().step_bits());
  return 0;
}
