/// \file snapshot.hpp
/// \brief Epoch-published table snapshots — the shared-state backbone of
/// the sharded emulator and the stream router.
///
/// Broadcasting every join/leave to N shard workers, each owning a full
/// table replica, costs O(shards) work per membership event and an
/// N-fold copy of the pool's routing state.  This module avoids both:
/// one *producer-owned mutable table* absorbs membership events, and
/// each membership **epoch** — the span of the stream between two
/// membership events — is published once as an immutable,
/// reference-counted table_snapshot.  Shard workers resolve
/// every request against the snapshot of the epoch the request arrived
/// under, so
///  * churn costs O(1) applications per event regardless of shard count,
///  * table memory is ~one table plus copy-on-write bookkeeping
///    (hd shares the circle basis and item-memory rows and copies only
///    its flat row list and slot array, and hd-hierarchical shares every
///    group the epoch's events did not touch; see
///    dynamic_table::snapshot()), and
///  * the merged load histogram stays bit-identical to a single-table
///    reference run, because every request still sees exactly the
///    membership state that preceded it in the stream.
///
/// The design follows the epoch-publication pattern of high-throughput
/// servers (e.g. cachegrand's read-mostly shared state): writers never
/// mutate what readers hold; they publish a fresh version and let the
/// old epoch drain.  Reclamation falls out of shared_ptr reference
/// counts — the last worker batch holding an epoch frees it, so an hd
/// epoch's teardown is a couple of flat-array frees on a shard worker.
#pragma once

#include <cstdint>
#include <memory>

#include "mem/hugepage_arena.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

/// One published membership epoch: an immutable table plus its epoch
/// number.  Safe to share across any number of reader threads — the
/// underlying table is frozen (see dynamic_table::snapshot()), and for
/// hd-family tables it carries the fully resolved slot cache, shared by
/// *all* shards for the epoch's whole lifetime instead of rebuilt per
/// sub-batch.  Because every slot is resolved, a worker's lookup_batch
/// on the epoch answers each request from that cache (one array read
/// per table, see hd_table::cached_owner()) and allocates nothing.
class table_snapshot {
 public:
  /// \param epoch  monotonically increasing membership-epoch number.
  /// \param table  frozen immutable table (from dynamic_table::snapshot()).
  /// \pre table != nullptr.
  table_snapshot(std::uint64_t epoch,
                 std::shared_ptr<const dynamic_table> table);

  /// Membership epoch this snapshot publishes (0 = before any event).
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// The immutable table; concurrent lookup()/lookup_batch() calls are
  /// safe.  Valid for the snapshot's lifetime.
  const dynamic_table& table() const noexcept { return *table_; }

  /// Bytes this snapshot keeps resident *beyond* state shared with the
  /// producer table and sibling epochs: the resolved slot caches of the
  /// tables it copied, not hypervectors.  For hd that is the whole
  /// table; for hd-hierarchical only the groups its epoch's events
  /// touched, plus the shell pointing at the shared ones.
  std::size_t marginal_bytes() const;

 private:
  std::uint64_t epoch_;
  std::shared_ptr<const dynamic_table> table_;
};

/// Producer-side owner of the single mutable table.  Applies membership
/// events, bumps the epoch, and lazily publishes one immutable
/// table_snapshot per *observed* epoch: consecutive membership events
/// with no request in between collapse into a single publication.
///
/// Not thread-safe by design — exactly one producer thread applies
/// events and publishes; consumers only ever touch the returned
/// shared_ptr<const table_snapshot>.
class snapshot_publisher {
 public:
  /// Takes ownership of the mutable table (with its current membership).
  /// Published epoch objects (table_snapshot and its shared_ptr control
  /// block, allocated together) are carved from the constructing
  /// thread's node-local arena (mem::local_arena()); epochs drain back
  /// to its free lists and the next publication recycles them.
  /// \pre table != nullptr.
  explicit snapshot_publisher(std::unique_ptr<dynamic_table> table);

  /// Applies a join to the mutable table and opens a new epoch.
  /// Previously published snapshots are unaffected.
  void join(server_id server, double weight = 1.0);

  /// Applies a leave to the mutable table and opens a new epoch.
  /// Previously published snapshots are unaffected.
  void leave(server_id server);

  /// Snapshot of the current epoch, publishing it first if the last
  /// membership event has not been published yet.  Stable: repeated
  /// calls within one epoch return the same snapshot object.
  /// \post result->epoch() == epoch().
  std::shared_ptr<const table_snapshot> current();

  /// Membership epochs opened so far (= join/leave events applied).
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Epochs actually published (≤ epoch() + 1; the gap is epochs no
  /// request ever observed).
  std::size_t published_epochs() const noexcept { return published_; }

  /// The producer-owned mutable table (end-of-run inspection).
  const dynamic_table& table() const noexcept { return *table_; }
  dynamic_table& table() noexcept { return *table_; }

  /// Total resident table bytes: the mutable table plus the marginal
  /// (non-shared) footprint of the currently published snapshot — the
  /// number the sharded report compares against N full replicas.
  std::size_t memory_bytes() const;

  /// Bytes this publisher keeps resident *beyond* rows shared with
  /// another holder: (memory - shared) of the mutable table plus the
  /// current snapshot's marginal bookkeeping.  This is what a shadow
  /// replica whose rows are COW-shared with the primary actually adds —
  /// memory_bytes() would count every shared row once per publisher.
  std::size_t marginal_bytes() const;

 private:
  std::unique_ptr<dynamic_table> table_;
  std::shared_ptr<mem::hugepage_arena> arena_;
  std::shared_ptr<const table_snapshot> current_;
  std::uint64_t epoch_ = 0;
  std::size_t published_ = 0;
};

}  // namespace hdhash
