/// \file hierarchical.hpp
/// \brief Hierarchical HD hashing — the scaling scheme the paper sketches
/// in Section 5.1: "HD hashing can scale to much larger clusters, and
/// even be used hierarchically (standard way to scale such hashing
/// systems)".
///
/// Servers are partitioned into `groups` shards by `h(s) mod groups`;
/// each shard is an independent hd_table over its members, and a router
/// hd_table maps each request to a (non-empty) shard.  A lookup costs
/// O(groups + k/groups) row comparisons instead of O(k) — minimized at
/// groups ~ sqrt(k) — while each shard's circle keeps a large lattice
/// step, so the robustness guarantee *improves* with sharding for the
/// same total pool.
///
/// Disruption: joins/leaves only perturb the affected shard, except when
/// a shard becomes empty/non-empty (its slice of request space moves
/// wholesale between shards — the classic hierarchical trade-off, which
/// the tests quantify).
///
/// Publishing follows the same locality: the router and every shard sit
/// behind shared pointers, so an epoch snapshot re-freezes only the
/// tables a membership event touched and shares the rest with the
/// previous epoch.
#pragma once

#include <memory>
#include <vector>

#include "core/hd_table.hpp"

namespace hdhash {

/// Configuration of a hierarchical HD table.
struct hierarchical_config {
  std::size_t groups = 16;          ///< number of shards
  hd_table_config shard{};          ///< per-shard hd_table parameters
  hd_table_config router{};         ///< router hd_table parameters
};

class hierarchical_hd_table final : public dynamic_table {
 public:
  explicit hierarchical_hd_table(const hash64& hash,
                                 hierarchical_config config = {});

  /// Weighted membership delegates to the owning shard's circle-slot
  /// replication (see hd_table::join).
  void join(server_id server, double weight = 1.0) override;
  void leave(server_id server) override;
  server_id lookup(request_id request) const override;

  /// Batch lookup.  One batched router query writes each request's
  /// shard into `out`, then the shards answer in place from their slot
  /// caches (hd_table::cached_owner()).  On warm caches (every published
  /// epoch) a request thus costs two cache reads, the router's and its
  /// shard's, and the call allocates nothing.  Only from the first shard
  /// miss on does the rest of the block take the batched path: a
  /// counting-sort scatter splits it by shard, then each non-empty shard
  /// answers its sub-block with the tiled associative query.
  /// Assignments match element-wise lookup().
  void lookup_batch(std::span<const request_id> requests,
                    std::span<server_id> out) const override;
  using dynamic_table::lookup_batch;

  double weight(server_id server) const override;

  /// Sums the router and shards plus the shell's table pointers.  In a
  /// snapshot, a table inherited from an earlier publication counts as
  /// shared whole, so memory_bytes - shared_bytes is what the epoch
  /// added: the tables it re-froze and its shell.
  table_stats stats() const override;
  bool contains(server_id server) const override;
  std::size_t server_count() const override { return server_count_; }
  std::vector<server_id> servers() const override;
  std::string_view name() const noexcept override { return "hd-hierarchical"; }

  /// Deep copy: fresh, unfrozen router and shards (rows still shared
  /// copy-on-write), nothing published yet.
  std::unique_ptr<dynamic_table> clone() const override;

  /// Epoch snapshot in O(changed groups).  Each table keeps the frozen
  /// copy it was last published as; join/leave drop the copy of the
  /// shard they touch (and the router's when a shard fills or empties)
  /// and fault_regions() drops them all.  A snapshot warms and re-freezes
  /// only the dropped tables (see hd_table::snapshot()) and returns a
  /// shell sharing every other one with earlier epochs.
  std::shared_ptr<const dynamic_table> snapshot() const override;

  /// Fault surface: the router's rows plus every shard's rows.
  std::vector<memory_region> fault_regions() override;

  std::size_t groups() const noexcept { return tables_.size() - 1; }

  /// Shard a server id belongs to.
  std::size_t shard_of(server_id server) const;

 private:
  using table_ptr = std::shared_ptr<hd_table>;

  hierarchical_hd_table(const hierarchical_hd_table& other);

  /// Snapshot shell over frozen tables (see snapshot()).
  hierarchical_hd_table(const hierarchical_hd_table& source,
                        std::vector<table_ptr> frozen,
                        std::vector<bool> inherited);

  const hd_table& router() const { return *tables_[0]; }
  const hd_table& shard(std::size_t g) const { return *tables_[g + 1]; }

  const hash64* hash_;
  hierarchical_config config_;
  // [0] is the router (keys are shard indices), [g + 1] shard g.
  std::vector<table_ptr> tables_;
  // The frozen copy each table was last published as, null once an
  // event touched it.  A shell's tables are their own publication.
  // Written by the const snapshot(), which only the producer calls.
  mutable std::vector<table_ptr> published_;
  // The tables a shell shares with an earlier publication (all false
  // on a producer table); stats() counts them as shared.
  std::vector<bool> inherited_;
  std::size_t server_count_ = 0;
};

}  // namespace hdhash
