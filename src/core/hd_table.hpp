/// \file hd_table.hpp
/// \brief Hyperdimensional hashing — the paper's primary contribution
/// (Section 3).
///
/// Servers and requests are encoded onto a circle of hypervectors
/// (Eq. 1); a request is routed to the server whose stored hypervector is
/// most similar to the request's encoding (Eq. 2, an associative-memory
/// query).  Robustness follows from the holographic representation: a
/// handful of flipped bits moves a 10,000-bit vector only marginally, so
/// the argmax — whose winner/runner-up margin is hundreds of bits — never
/// changes under realistic memory-error rates.
///
/// API v2 additions:
///  * lookup_batch() — the batch associative query.  On a warm slot
///    cache (every published epoch) each request is one array read and
///    the call allocates nothing.  From the first unresolved slot on,
///    Enc's n distinct outputs collapse the rest of the block to its
///    unique circle slots.  On a fresh_bits circle, whose Hamming
///    profile is exact, each slot then walks the circle outward from
///    itself and scores only the rows that circle geometry and each
///    row's own deviation from its circle vector cannot rule out —
///    about two per slot instead of all k.  Circles built with
///    independent flips sweep the item memory instead, each row
///    compared word-wise against a tile of probes, its tail words
///    skipped once its prefix already loses.  Both read a decode index
///    kept as table state, as LAESA keeps its pivot distances: the rows'
///    words in home order, each with its deviation from its circle
///    vector.  A join, a leave or fault_regions() marks it stale, and
///    the next decode (or freeze()) rebuilds it once.
///  * weighted join — a member of weight w stores round(w) rows
///    (replicated circle slots), so it wins a proportional share of the
///    request space.  Weight 1 is bit-identical to the unweighted v1
///    behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/encoder.hpp"
#include "hdc/item_memory.hpp"
#include "mem/arena_allocator.hpp"
#include "mem/hugepage_arena.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

/// Construction parameters for hd_table.
struct hd_table_config {
  /// Hypervector dimensionality d.  The paper uses 10,000.
  std::size_t dimension = 10'000;
  /// Circle size n (must stay strictly above the largest pool size; the
  /// paper requires n > k).  Default 4096 = 2x the paper's largest pool.
  std::size_t capacity = 4096;
  /// Similarity metric δ of Eq. 2.  All binary metrics give the same
  /// argmax; inverse Hamming is what accelerator adder trees compute.
  hdc::metric metric = hdc::metric::inverse_hamming;
  /// Algorithm 1 bit-flip policy (see hdc/basis.hpp).
  hdc::flip_policy policy = hdc::flip_policy::fresh_bits;
  /// Seed for the circle construction and h(·).
  std::uint64_t seed = 0x9D0C'AB1E;
  /// Slot-result cache modelling an O(1) HDC accelerator lookup
  /// (Schmuck et al. 2019 do the query in one cycle; caching per circle
  /// slot is the software analogue because Enc has only n distinct
  /// outputs).  The cache is maintained *incrementally* across
  /// membership changes: a leave re-decodes only the slots the leaver
  /// owned, and a join compares each newcomer row against each slot's
  /// cached winner instead of an O(n·k) full rebuild — always yielding
  /// exactly the answers of a cold decode.  Under `fresh_bits` a joining
  /// row's distance to every slot follows from circle geometry, so a
  /// join costs n integer compares per row; under `independent` it
  /// costs n row distances.  Off by default: robustness experiments
  /// must exercise the real associative query.
  bool slot_cache = false;
  /// Maximum-likelihood lattice decoding (default on).  Pairwise
  /// similarities of circular hypervectors are quantized in steps of
  /// ⌊d/n⌋ bits by construction, so the decoder snaps each measured
  /// Hamming distance to the nearest lattice level before comparing.  A
  /// perturbation of any stored row by fewer than step/2 bit flips then
  /// provably cannot change any assignment — the formal version of the
  /// paper's "HD hashing remains unaffected" claim.  Requests exactly
  /// equidistant between two servers resolve to the smaller server id,
  /// both with and without faults.  Disable to get the raw Eq. 2 argmax.
  bool lattice_decode = true;
};

/// The HD hashing dynamic hash table.
class hd_table final : public dynamic_table {
 public:
  /// \param hash  borrowed hash function (must outlive the table).
  explicit hd_table(const hash64& hash, hd_table_config config = {});

  /// Weighted membership by circle-slot replication: the member stores
  /// max(1, round(w)) rows (the first is its own encoding, extra
  /// replicas are encodings of derived identifiers), so the weight
  /// resolution is one circle slot.  weight() subsequently reports that
  /// effective replication — the share the member actually serves — not
  /// the raw requested value.  All rows count against the circle
  /// capacity n.
  void join(server_id server, double weight = 1.0) override;
  void leave(server_id server) override;
  server_id lookup(request_id request) const override;

  /// Batch associative query.  With the slot cache on, requests are
  /// answered by cached_owner() until the first one whose slot is
  /// unresolved; that part of the call allocates nothing, so a block on
  /// a warm table or a published snapshot costs one array read per
  /// request.  The rest of the block, from the first miss on (the whole
  /// block when the cache is off), is deduped to its sorted unique slots
  /// by sort + unique; slots the cache already resolved answer from it,
  /// the others are decoded together (see decode_slots()), and each
  /// request finds its slot's answer by binary search.  Assignments are
  /// identical to element-wise lookup().
  void lookup_batch(std::span<const request_id> requests,
                    std::span<server_id> out) const override;
  using dynamic_table::lookup_batch;

  /// The slot cache's answer for a request: the owner cached for its
  /// circle slot, or nullopt when the cache is off or the slot is
  /// unresolved.  Never decodes and never writes, so it is safe on a
  /// frozen snapshot shared by many readers.  A cache entry always
  /// equals a cold decode, so a value returned here is exactly what
  /// lookup() returns.
  std::optional<server_id> cached_owner(request_id request) const;

  /// Words of each row the tiled sweep of an independent-flips circle
  /// scores before deciding whether the rest of the row is needed (the
  /// partial-distance prefix of decode_slots(); 24 words = 1,536 bits).
  /// The circle walk of a fresh_bits circle scores whole rows.
  static constexpr std::size_t kDecodePrefixWords = 24;

  double weight(server_id server) const override;
  table_stats stats() const override;
  bool contains(server_id server) const override;
  std::size_t server_count() const override { return member_count_; }
  std::vector<server_id> servers() const override;
  std::string_view name() const noexcept override { return "hd"; }
  std::unique_ptr<dynamic_table> clone() const override;

  /// Epoch snapshot: warms the slot cache (when enabled), then shares a
  /// frozen copy-on-write copy — the circle basis and every item-memory
  /// row are shared with *this, so the snapshot's marginal footprint is
  /// bookkeeping (the flat row list + slot array, or the decode index
  /// when the cache is off), not hypervectors.  The copy is frozen (see
  /// freeze()), making concurrent lookups on it race-free.
  std::shared_ptr<const dynamic_table> snapshot() const override;

  /// Marks this instance immutable-for-memoization: lookups consult the
  /// slot cache but never write it (a miss decodes without caching).
  /// Published snapshots are frozen so that any number of shard workers
  /// can resolve against one instance concurrently with no
  /// synchronization.  A copy that may still decode rebuilds a stale
  /// decode index first, so its readers never write it; one whose slot
  /// cache resolves every slot never decodes and skips that.
  /// Irreversible for this instance; copies (clones, further snapshots)
  /// always start unfrozen — the copy constructor resets the flag,
  /// preserving clone()'s independently-mutable contract even for
  /// clones taken from a snapshot.
  void freeze();

  /// Copy shares the circle basis and item-memory rows copy-on-write;
  /// the copy is never frozen (see freeze()) and builds its own decode
  /// index.
  hd_table(const hd_table& other);
  hd_table& operator=(const hd_table&) = delete;

  /// Fault surface: the stored server hypervectors — the (in hardware:
  /// SRAM) rows of the associative memory.  The circle set C is not
  /// exposed: accelerators rematerialize basis hypervectors on the fly
  /// (Schmuck et al.), so C is not resident in error-prone memory.
  /// Clears the slot cache and marks the decode index stale, so writes
  /// through the regions must land before the next call on the table
  /// (see memory_region.hpp).
  std::vector<memory_region> fault_regions() override;

  /// Resolves every circle slot into the slot cache so subsequent
  /// lookups are O(1).  Models an HDC accelerator's steady state, where
  /// the associative memory answers in one cycle from the first request.
  /// No-op unless config().slot_cache is set.
  void warm_slot_cache() const;

  /// Full query detail for a request: winning server, best and runner-up
  /// similarity.  `margin()/2` bounds the number of bit flips that can
  /// possibly change this request's assignment.  \pre pool non-empty.
  hdc::query_result lookup_detailed(request_id request) const;

  const hd_table_config& config() const noexcept { return config_; }
  const circle_encoder& encoder() const noexcept { return encoder_; }

 private:
  /// One stored row: the key it is stored under and the member that
  /// owns it.  A member's primary row has key == owner (its own
  /// encoding); its replica rows carry derived keys.
  struct row_entry {
    std::uint64_t key = 0;
    server_id owner = 0;
  };

  /// One row of the decode index: a stored row's key, owner and words,
  /// its home slot_of(key), whose circle vector it was stored as, and
  /// on a circle the walk takes its deviation Hamming(row, C[home]) —
  /// the faults it carries.
  struct index_row {
    std::uint64_t key = 0;
    server_id owner = 0;
    const std::uint64_t* words = nullptr;
    std::size_t home = 0;
    std::uint64_t deviation = 0;
  };

  /// One memoized slot decision.  Besides the resolved owner, the
  /// winning row key and its exact Hamming distance are kept so
  /// membership events can maintain the cache incrementally: a join
  /// only needs (distance, key) of the incumbent to decide whether a
  /// new row beats it under the same lattice/tie rule as decode().
  struct cached_slot {
    server_id owner = 0;
    std::uint64_t row_key = 0;
    std::uint64_t distance = 0;
  };

  /// Decodes a probe to (winning owner, raw scores) under the
  /// configured rule; the result's key is the owner of the winning row.
  /// When non-null, `winner` receives that owner, the winning row key
  /// and its exact Hamming distance to the probe (the cache maintenance
  /// currency).  Scores every word of every row, unpruned: the
  /// single-probe path behind lookup() and lookup_detailed(), and the
  /// reference the batch path is tested against.
  hdc::query_result decode(const hdc::hypervector& probe,
                           cached_slot* winner = nullptr) const;

  /// Decodes a block of circle slots to winning *owner* ids through the
  /// dispatched SIMD Hamming kernel (simd/hamming_kernel.hpp).  The
  /// win/tie rule (lowest lattice level, then the smaller row key) runs
  /// on integer distance bands and does not depend on the order rows are
  /// scored in, so answers are bit-identical across kernels and to the
  /// scalar decode(), under any corruption of the rows.  When non-null,
  /// `detail[i]` receives the winning owner, row key and distance for
  /// slots[i].
  ///
  /// fresh_bits circles take the exact circle walk.  There
  /// Hamming(C[i], C[j]) == step × circular_distance(i, j), so a row
  /// homed at slot h that sits e bits from C[h] is at least
  /// step × circular_distance(h, s) − e bits from the probe C[s] (the
  /// triangle inequality; pivot elimination as in Vidal's AESA, with the
  /// circle as the pivots).  As in LAESA, the pivot distances are index
  /// state rather than per-query work: the decode index holds each
  /// row's e in home order, with the largest e (see build_index()).
  /// Each slot walks that order outward from itself in both directions,
  /// nearest home first, scores a row only while step·m − e is below
  /// its winner's losing edge (m: the row's circular distance from the
  /// slot), and stops once step·m − max e is not.
  ///
  /// Independent-flips circles, whose profile is only approximate, and
  /// step-0 circles take the tiled partial-distance sweep (Bei & Gray
  /// 1985).  Every row is scored against a tile of probes over its
  /// kDecodePrefixWords-word prefix, and over the remaining words only
  /// if some probe of the tile could still take it.  A Hamming distance
  /// is a sum of non-negative per-word counts, so the prefix is a lower
  /// bound and the pruning is exact.  Tiles over sorted slots (see
  /// lookup_batch()) prune best.
  void decode_slots(std::span<const std::size_t> slots,
                    std::span<server_id> winners,
                    cached_slot* detail = nullptr) const;

  /// True when a candidate row at `distance` beats the incumbent cache
  /// entry under the exact decode() rule (lattice level compare, ties
  /// to the smaller row key).
  bool beats_cached(const cached_slot& incumbent, std::uint64_t distance,
                    std::uint64_t row_key) const;

  /// True when decode_slots() takes the circle walk: a fresh_bits
  /// circle with a non-zero step.
  bool walks_circle() const noexcept;

  /// Rebuilds the decode index from the stored rows — a gather of their
  /// words, sorted by home, with each row's deviation measured when the
  /// circle walk reads it — and clears index_stale_.  Never runs on a
  /// frozen copy (see freeze()).
  void build_index() const;

  const hash64* hash_;
  hd_table_config config_;
  // The arena backing rows and the slot cache: the constructing
  // thread's node-local arena (mem::local_arena(), created under the
  // HDHASH_MEM request).  Shared with clones and snapshots so
  // shared residency has one owner.
  std::shared_ptr<mem::hugepage_arena> arena_;
  circle_encoder encoder_;
  hdc::item_memory memory_;
  // Row bookkeeping, index-aligned with memory_'s storage order: entry i
  // names the key and owner of memory_'s i-th row, so a decoded row's
  // owner is read off its position.  Membership queries scan it (k is
  // bounded by the circle capacity).  Kept flat, like consistent_table's
  // members, so copying a snapshot is one allocation and freeing it one
  // free.
  std::vector<row_entry> rows_;
  // The decode index (see build_index()) and its largest deviation.
  // A join, a leave or fault_regions() marks it stale, and a copy
  // starts stale; the next decode or freeze() rebuilds it, so the
  // decodes between two mutations share one build.  Mutable because it
  // is derived from the rows, like the slot cache.
  mutable std::vector<index_row> index_;
  mutable std::uint64_t max_deviation_ = 0;
  mutable bool index_stale_ = false;
  std::size_t member_count_ = 0;
  // Slot-result cache (accelerator model): slot -> winning decision,
  // maintained incrementally across join/leave.  Mutable because it is
  // a pure memoization of lookup(); frozen_ gates all writes so a
  // published snapshot is read-only shared state.  Arena-allocated:
  // the snapshot-time rebuild recycles the previous epoch's block
  // through the arena free list instead of the general heap.
  mutable std::vector<std::optional<cached_slot>,
                      mem::arena_allocator<std::optional<cached_slot>>>
      cache_;
  bool frozen_ = false;
};

}  // namespace hdhash
