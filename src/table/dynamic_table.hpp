/// \file dynamic_table.hpp
/// \brief The dynamic hash table interface shared by every algorithm in
/// hdhash: modular, consistent, rendezvous, jump, Maglev and HD hashing.
///
/// "Dynamic hash table" is used in the paper's sense: a mapper from
/// request identifiers to the currently available server pool, where
/// servers join and leave at any time.  The two quality axes are
///  * minimal disruption — how few requests remap when the pool changes;
///  * uniformity — how evenly requests spread over servers.
///
/// API v2 extends the original scalar interface along three axes:
///  * batching — lookup_batch() maps a block of requests at once, the
///    shape under which HD hashing's associative query amortizes probe
///    encoding and sweeps its item memory word-parallel;
///  * weights — join() takes a relative capacity, so heterogeneous pools
///    (a 2x machine takes 2x the traffic) are first-class;
///  * introspection — stats() reports each algorithm's live memory
///    footprint and expected per-lookup cost for capacity planning.
///
/// Every implementation also exposes its live state for fault injection
/// (see fault/memory_region.hpp), which is how the robustness experiments
/// corrupt each algorithm's actual working memory.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "fault/memory_region.hpp"
#include "util/require.hpp"

namespace hdhash {

/// Unique identifier of a server (in practice: hash of an IP/endpoint).
using server_id = std::uint64_t;
/// Unique identifier of a request (in practice: hash of a key/URL/user).
using request_id = std::uint64_t;

/// Introspection snapshot of a table's resource profile.  Filled in by
/// every algorithm; the emulator and capacity-planning tools read it.
struct table_stats {
  /// Bytes of live routing state (the fault surface plus caches) —
  /// what a production deployment keeps resident per table instance.
  std::size_t memory_bytes = 0;
  /// Of memory_bytes, the bytes currently shared copy-on-write with
  /// other instances (clones or published snapshots of this table).
  /// memory_bytes - shared_bytes is the instance's marginal residency —
  /// what one more epoch snapshot actually costs.
  std::size_t shared_bytes = 0;
  /// Expected elemental operations per scalar lookup: hash evaluations
  /// for the classic algorithms, 64-bit word operations for the HD
  /// associative query.  Comparable within an algorithm across pool
  /// sizes (the Figure 4 x-axis), indicative across algorithms.
  double expected_lookup_cost = 0.0;
  /// Backing the hot state landed on: "huge", "thp" or "page" for
  /// arena-backed tables (src/mem), "heap" for the default allocator
  /// (every non-arena algorithm).  Points at a string literal — always
  /// valid.
  std::string_view arena_backing = "heap";
  /// Pages backing the owning arena's mapping set (2MB pages for huge
  /// chunks, 4KB otherwise) — the TLB-reach number.  Arena-level:
  /// tables sharing one arena report the same value (residency is
  /// attributed to the owning arena, counted once), and 0 means heap.
  std::size_t resident_pages = 0;
  /// Of the owning arena's reserved bytes, bytes on explicit-hugepage
  /// (MAP_HUGETLB) chunks.  Arena-level, like resident_pages.
  std::size_t hugepage_bytes = 0;
};

/// Abstract request→server mapper over a dynamic server pool.
class dynamic_table : public fault_surface {
 public:
  /// Adds a server to the pool with a relative capacity weight: a server
  /// with weight 2 should receive twice the traffic of a weight-1 peer.
  /// Weight support varies by algorithm — native scoring in
  /// weighted-rendezvous, ring-point multiplicity in consistent, circle-
  /// slot replication in hd; the unweighted algorithms (modular, jump,
  /// maglev, rendezvous, bounded) require weight == 1.
  /// \param server  identifier to add.
  /// \param weight  relative capacity; algorithms that realize weights by
  ///                discrete replication serve round(weight) (see weight()).
  /// \pre the server is not already present; weight > 0 (and == 1 for
  /// unweighted algorithms); pool below capacity (HD).
  /// \post contains(server); weight(server) reports the effective weight;
  /// previously published snapshots are unaffected.
  virtual void join(server_id server, double weight = 1.0) = 0;

  /// Removes a server from the pool.
  /// \pre the server is present.
  /// \post !contains(server); requests previously mapped to it remap to
  /// surviving members under each algorithm's disruption behaviour;
  /// previously published snapshots are unaffected.
  virtual void leave(server_id server) = 0;

  /// Maps a request to a server.  \pre the pool is non-empty.
  ///
  /// Note: lookups on a fault-injected table may return identifiers that
  /// are not in the pool (e.g. a corrupted stored id) — that is the
  /// failure mode the robustness experiments measure.
  virtual server_id lookup(request_id request) const = 0;

  /// Maps a block of requests to servers, writing `out[i]` for
  /// `requests[i]`.  Produces exactly the assignments of element-wise
  /// lookup(); overrides exist purely for throughput (hd_table and
  /// hd-hierarchical amortize probe encoding and sweep their item
  /// memories word-parallel across the block).
  /// \param requests  block of request identifiers to map.
  /// \param out       receives the assignment of each request, in order.
  /// \pre out.size() == requests.size(); pool non-empty unless the block
  /// is empty.
  /// \post out[i] == lookup(requests[i]) for every i, bit-identically.
  virtual void lookup_batch(std::span<const request_id> requests,
                            std::span<server_id> out) const {
    HDHASH_REQUIRE(requests.size() == out.size(),
                   "lookup_batch output span must match the request block");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      out[i] = lookup(requests[i]);
    }
  }

  /// Convenience overload allocating the output block.
  std::vector<server_id> lookup_batch(
      std::span<const request_id> requests) const {
    std::vector<server_id> out(requests.size());
    lookup_batch(requests, out);
    return out;
  }

  /// The weight a member carries (1 for unweighted algorithms).
  /// Algorithms that realize weights by discrete replication report the
  /// *effective* weight actually served — hd stores max(1, round(w))
  /// circle slots and reports that — so this may differ from the raw
  /// value passed to join() (weights 1.0 and 1.4 are the same hd table,
  /// and both report 1).  Uniformity expectations must be computed from
  /// this value, not the requested one.
  /// \param server  member to query.
  /// \pre the server is present.
  /// \post the returned value is > 0 and stable until the next
  /// join/leave.
  virtual double weight(server_id server) const {
    HDHASH_REQUIRE(contains(server), "server not in the pool");
    return 1.0;
  }

  /// Resource profile of the current state (see table_stats).
  /// \post memory_bytes covers the live routing state (fault surface
  /// plus caches); shared_bytes ≤ memory_bytes counts the portion
  /// shared copy-on-write with clones/snapshots of this table.
  virtual table_stats stats() const = 0;

  /// True when `server` is in the pool.
  virtual bool contains(server_id server) const = 0;

  /// Number of servers currently in the pool.
  virtual std::size_t server_count() const = 0;

  /// Servers currently in the pool (unspecified but deterministic order).
  virtual std::vector<server_id> servers() const = 0;

  /// Stable algorithm name, e.g. "consistent".
  virtual std::string_view name() const noexcept = 0;

  /// Deep copy with identical mapping behaviour; the emulator uses clones
  /// as pristine shadow oracles while the original is fault-injected.
  /// \post the clone is independently mutable; subsequent join/leave or
  /// fault injection on either table never affects the other.
  virtual std::unique_ptr<dynamic_table> clone() const = 0;

  /// Immutable published snapshot of the current mapping — the unit of
  /// epoch-based state sharing in the sharded emulator (emu/snapshot.hpp).
  ///
  /// The default implementation deep-copies via clone(); implementations
  /// with large immutable state override it to share that state
  /// copy-on-write.  hd shares the circle basis and the item-memory
  /// rows, so a snapshot copies only its bookkeeping (its flat row list
  /// and slot array), not hypervectors; hd-hierarchical also shares with
  /// the previous epoch every group no membership event touched, so it
  /// copies only the touched groups' bookkeeping.
  /// \post the returned table maps every request exactly as *this does
  /// at the time of the call, concurrent lookup()/lookup_batch() calls
  /// on it from multiple threads are safe (it is never mutated), and
  /// later join/leave/fault injection on *this never changes its
  /// answers.
  virtual std::shared_ptr<const dynamic_table> snapshot() const {
    return std::shared_ptr<const dynamic_table>(clone());
  }
};

}  // namespace hdhash
