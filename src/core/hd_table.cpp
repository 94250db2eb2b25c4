#include "core/hd_table.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "hdc/similarity.hpp"
#include "simd/hamming_kernel.hpp"
#include "util/require.hpp"

namespace hdhash {

namespace {
/// Salt decorrelating replica-row identifiers from real server ids.
constexpr std::uint64_t kReplicaSalt = 0x57A5'11D5'0C1E'F00DULL;
}  // namespace

hd_table::hd_table(const hash64& hash, hd_table_config config)
    : hash_(&hash),
      config_(std::move(config)),
      arena_(config_.arena_rows
                 ? (config_.arena ? config_.arena : mem::local_arena())
                 : nullptr),
      encoder_(config_.capacity, config_.dimension, hash, config_.seed,
               config_.policy),
      memory_(config_.dimension, config_.metric, arena_),
      cache_(mem::arena_allocator<std::optional<cached_slot>>(arena_)) {
  if (config_.slot_cache) {
    cache_.assign(config_.capacity, std::nullopt);
  }
}

hd_table::hd_table(const hd_table& other)
    : hash_(other.hash_),
      config_(other.config_),
      // Clones and snapshots draw from the source's arena: shared rows
      // have exactly one owning arena, so residency is counted once.
      arena_(other.arena_),
      encoder_(other.encoder_),
      memory_(other.memory_),
      rows_(other.rows_),
      member_count_(other.member_count_),
      cache_(other.cache_),
      // A copy is independently mutable regardless of the source's
      // snapshot state: membership maintenance must write its cache.
      frozen_(false) {}

void hd_table::join(server_id server, double weight) {
  HDHASH_REQUIRE(weight > 0.0, "weight must be positive");
  HDHASH_REQUIRE(!contains(server), "server already in the pool");
  // The table replicates round(weight) slots, so that is the weight it
  // actually serves: weight() counts the rows, not the raw request, or
  // the weighted-uniformity chi-squared expectation diverges from the
  // load the member really receives (weights 1.0 and 1.4 build
  // identical tables and must report identically).
  const auto replicas = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(weight)));
  HDHASH_REQUIRE(memory_.size() + replicas < encoder_.size(),
                 "pool would reach the circle capacity (need n > k)");
  const std::size_t first_row = rows_.size();
  for (std::size_t replica = 0; replica < replicas; ++replica) {
    // The first row is the server's own encoding (bit-identical to the
    // unweighted v1 behaviour); extras are encodings of derived ids.
    const std::uint64_t key =
        replica == 0 ? server
                     : hash_->hash_pair(server, replica,
                                        config_.seed ^ kReplicaSalt);
    HDHASH_REQUIRE(!memory_.contains(key),
                   "replica identifier collision — change the table seed");
    memory_.insert(key, encoder_.encode(key));
    rows_.push_back(row_entry{key, server});
  }
  ++member_count_;
  // Incremental cache maintenance: a new row changes a slot's decision
  // only if it beats the incumbent winner under the decode() rule, so
  // one distance per (new row, cached slot) — O(n) per replica instead
  // of the O(n·k) full rebuild — keeps every valid entry exact.
  if (config_.slot_cache && !frozen_) {
    // A joining row is the fresh circle vector of its home slot, faults
    // or not (the circle is not on the fault surface).  Under fresh_bits
    // the circle's profile is exact — Hamming(C[i], C[j]) == step ×
    // circular_distance(i, j, n), for even and odd n (circular.hpp) — so
    // its distance to every slot is integer math.  Independent flips
    // only approximate that profile and keep the popcount.
    const bool geometric = config_.policy == hdc::flip_policy::fresh_bits;
    const std::uint64_t step = encoder_.step_bits();
    const std::size_t n = cache_.size();
    for (std::size_t r = first_row; r < rows_.size(); ++r) {
      const std::uint64_t key = rows_[r].key;
      const std::size_t home = encoder_.slot_of(key);
      for (std::size_t slot = 0; slot < n; ++slot) {
        if (!cache_[slot].has_value()) {
          continue;  // unresolved slots stay lazy
        }
        const std::uint64_t d =
            geometric ? step * circular_distance(home, slot, n)
                      : hdc::hamming_distance(encoder_.at(home),
                                              encoder_.at(slot));
        if (beats_cached(*cache_[slot], d, key)) {
          cache_[slot] = cached_slot{server, key, d};
        }
      }
    }
  }
}

void hd_table::leave(server_id server) {
  HDHASH_REQUIRE(contains(server), "server not in the pool");
  // Both lists drop the leaver's rows in place, so they stay
  // index-aligned in storage order.
  for (const row_entry& row : rows_) {
    if (row.owner == server) {
      memory_.erase(row.key);
    }
  }
  std::erase_if(rows_,
                [server](const row_entry& row) { return row.owner == server; });
  --member_count_;
  // Removing rows can only change slots the leaver was winning (the
  // minimum over the remaining rows is unchanged elsewhere), so only
  // those entries are re-decoded — lazily, on next touch or warm.
  if (config_.slot_cache && !frozen_) {
    for (std::size_t slot = 0; slot < cache_.size(); ++slot) {
      if (cache_[slot].has_value() && cache_[slot]->owner == server) {
        cache_[slot] = std::nullopt;
      }
    }
  }
}

hdc::query_result hd_table::decode(const hdc::hypervector& probe,
                                   cached_slot* winner) const {
  // Maximum-likelihood lattice decoding: snap each measured distance to
  // the nearest circle level (the code's lattice) before comparing, so a
  // per-row perturbation below step/2 bits cannot change the decision.
  // With lattice decoding off — or a degenerate circle whose step is 0,
  // where every distance would snap to one level — the step degrades to
  // 1, making the level the distance itself: the raw Eq. 2 argmax with
  // ties to the smaller key, exactly item_memory::query's rule.
  const double step = config_.lattice_decode && encoder_.step_bits() > 0
                          ? static_cast<double>(encoder_.step_bits())
                          : 1.0;
  struct best_entry {
    std::uint64_t key = 0;
    long long level = 0;
    bool valid = false;
  };
  best_entry best;
  std::uint64_t best_distance = 0;
  std::size_t best_row = 0;
  std::size_t index = 0;  // storage position, aligned with rows_
  hdc::query_result result;
  result.best_score = -std::numeric_limits<double>::infinity();
  result.runner_up = -std::numeric_limits<double>::infinity();
  const auto dim = static_cast<double>(config_.dimension);
  memory_.visit([&](std::uint64_t key, const hdc::hypervector& row) {
    const std::size_t position = index++;
    const std::uint64_t raw_distance = hdc::hamming_distance(row, probe);
    const auto distance = static_cast<double>(raw_distance);
    const auto level = static_cast<long long>(std::llround(distance / step));
    // Both metrics are affine in the Hamming distance; deriving the raw
    // score here avoids a second popcount pass over the row.
    const double raw = memory_.similarity_metric() == hdc::metric::cosine
                           ? 1.0 - 2.0 * distance / dim
                           : dim - distance;
    const bool wins = !best.valid || level < best.level ||
                      (level == best.level && key < best.key);
    if (wins) {
      if (best.valid) {
        result.runner_up = std::max(result.runner_up, result.best_score);
      }
      best = best_entry{key, level, true};
      best_distance = raw_distance;
      best_row = position;
      result.best_score = raw;
    } else {
      result.runner_up = std::max(result.runner_up, raw);
    }
  });
  if (best.valid) {
    result.key = rows_[best_row].owner;
    if (winner != nullptr) {
      *winner = cached_slot{result.key, best.key, best_distance};
    }
  }
  return result;
}

void hd_table::decode_slots(std::span<const std::size_t> slots,
                            std::span<server_id> winners,
                            cached_slot* detail) const {
  // One gather of the stored rows; scanning them in storage order keeps
  // the win/tie rule identical to the scalar decode().  rows_ shares that
  // order, so each row's owner is read off its position.
  struct row_ref {
    std::uint64_t key;
    server_id owner;
    const std::uint64_t* words;
  };
  std::vector<row_ref> rows;
  rows.reserve(memory_.size());
  memory_.visit([&rows, this](std::uint64_t key, const hdc::hypervector& hv) {
    rows.push_back(row_ref{key, rows_[rows.size()].owner, hv.words().data()});
  });
  const std::size_t words = (config_.dimension + 63) / 64;
  const std::uint64_t step = encoder_.step_bits();
  // Degenerate circles (step 0) cannot quantize; raw argmax, as decode().
  const bool lattice = config_.lattice_decode && step > 0;

  // Probe tile: each row word is loaded once and compared against kTile
  // probes — the word-parallel sweep an HDC accelerator's adder trees
  // perform across concurrent queries.  The XOR+popcount-accumulate over
  // the tile runs through the dispatched SIMD kernel (scalar / AVX2
  // Harley–Seal / AVX-512 VPOPCNTDQ, see simd/hamming_kernel.hpp); the
  // win/tie decision below stays in portable code so assignments are
  // bit-identical across kernels.
  constexpr std::size_t kTile = simd::kMaxTile;
  const simd::hamming_kernel& kernel = simd::active_kernel();
  // The winner is tracked as the half-open distance band [lo, hi) that
  // still *ties* it: a candidate strictly below `lo` beats the winner, a
  // candidate inside the band ties (smaller key wins), at or above `hi`
  // it loses.  For lattice decoding the band is the winning level's
  // quantization cell; for the raw argmax it is the single distance
  // {best_dist} (both Eq. 2 metrics are strictly decreasing in the
  // distance, so score order — including exact ties — is distance
  // order).  This keeps the per-row sweep in integer compares; the
  // division that derives a lattice level runs only when the winner
  // changes, O(log) times per sweep in expectation.
  struct best_state {
    std::uint64_t key = 0;
    server_id owner = 0;
    std::uint64_t d = 0;   ///< winning row's exact distance
    std::uint64_t lo = 0;  ///< smallest distance that still ties
    std::uint64_t hi = 0;  ///< smallest distance that loses
    bool valid = false;
  };
  // Partial-distance search (Bei & Gray 1985): the distance over a row's
  // first `prefix` words is a lower bound on the full one, so a row
  // whose prefix already reaches every probe's `hi` loses outright and
  // its remaining words are never scored.
  const std::size_t prefix = std::min(words, kDecodePrefixWords);
  std::array<const std::uint64_t*, kTile> probes{};
  std::array<const std::uint64_t*, kTile> probe_rest{};
  std::array<std::uint64_t, kTile> dist{};
  std::array<std::uint64_t, kTile> dist_rest{};
  std::array<best_state, kTile> best{};
  for (std::size_t base = 0; base < slots.size(); base += kTile) {
    const std::size_t tile = std::min(kTile, slots.size() - base);
    for (std::size_t t = 0; t < kTile; ++t) {
      // Padding the tail tile with its first probe keeps the kernel on
      // its full-tile fast path (fixed trip count, unrolled).
      probes[t] = encoder_.at(slots[base + (t < tile ? t : 0)]).words().data();
      probe_rest[t] = probes[t] + prefix;
    }
    best.fill(best_state{});
    for (const row_ref& row : rows) {
      kernel.tile_distance(row.words, probes.data(), kTile, prefix,
                           dist.data());
      if (prefix < words) {
        bool open = false;
        for (std::size_t t = 0; t < tile; ++t) {
          open = open || !best[t].valid || dist[t] < best[t].hi;
        }
        if (!open) {
          continue;  // the prefix alone already loses for every probe
        }
        kernel.tile_distance(row.words + prefix, probe_rest.data(), kTile,
                             words - prefix, dist_rest.data());
        for (std::size_t t = 0; t < kTile; ++t) {
          dist[t] += dist_rest[t];
        }
      }
      for (std::size_t t = 0; t < tile; ++t) {
        best_state& b = best[t];
        const std::uint64_t d = dist[t];
        if (b.valid && d >= b.lo && (d >= b.hi || row.key >= b.key)) {
          continue;  // loses outright, or ties against a smaller key
        }
        b.key = row.key;
        b.owner = row.owner;
        b.d = d;
        b.valid = true;
        if (lattice) {
          // level = round-half-up(d / step), in exact integer form —
          // identical to decode()'s llround for every reachable
          // (distance, step) pair — and its cell [lo, hi).
          const std::uint64_t level = (2 * d + step) / (2 * step);
          b.lo = level == 0 ? 0 : (step * (2 * level - 1) + 1) / 2;
          b.hi = (step * (2 * level + 1) + 1) / 2;
        } else {
          b.lo = d;
          b.hi = d + 1;
        }
      }
    }
    for (std::size_t t = 0; t < tile; ++t) {
      winners[base + t] = best[t].owner;
      if (detail != nullptr) {
        detail[base + t] = cached_slot{best[t].owner, best[t].key, best[t].d};
      }
    }
  }
}

bool hd_table::beats_cached(const cached_slot& incumbent,
                            std::uint64_t distance,
                            std::uint64_t row_key) const {
  // Same decision as decode()/decode_slots, in exact integer form:
  // compare lattice levels (round-half-up of distance / step), ties to
  // the smaller row key.  Step degrades to 1 when lattice decoding is
  // off or the circle is degenerate, making the level the distance.
  const std::uint64_t step = config_.lattice_decode && encoder_.step_bits() > 0
                                 ? encoder_.step_bits()
                                 : 1;
  const std::uint64_t candidate_level = (2 * distance + step) / (2 * step);
  const std::uint64_t incumbent_level =
      (2 * incumbent.distance + step) / (2 * step);
  return candidate_level < incumbent_level ||
         (candidate_level == incumbent_level && row_key < incumbent.row_key);
}

std::optional<server_id> hd_table::cached_owner(request_id request) const {
  if (!config_.slot_cache) {
    return std::nullopt;
  }
  const std::optional<cached_slot>& entry = cache_[encoder_.slot_of(request)];
  if (!entry.has_value()) {
    return std::nullopt;
  }
  return entry->owner;
}

server_id hd_table::lookup(request_id request) const {
  HDHASH_REQUIRE(!memory_.empty(), "lookup on an empty pool");
  if (const std::optional<server_id> owner = cached_owner(request)) {
    return *owner;
  }
  if (config_.slot_cache) {
    const std::size_t slot = encoder_.slot_of(request);
    cached_slot winner;
    decode(encoder_.at(slot), &winner);
    if (!frozen_) {
      cache_[slot] = winner;
    }
    return winner.owner;
  }
  return decode(encoder_.encode(request)).key;
}

void hd_table::lookup_batch(std::span<const request_id> requests,
                            std::span<server_id> out) const {
  HDHASH_REQUIRE(requests.size() == out.size(),
                 "lookup_batch output span must match the request block");
  if (requests.empty()) {
    return;
  }
  HDHASH_REQUIRE(!memory_.empty(), "lookup on an empty pool");

  // A warm cache answers the block with one array read per request.  The
  // first unresolved slot (the first request, with the cache off) hands
  // the rest of the block, from that request on, to the decode path.
  std::size_t hits = 0;
  for (; hits < requests.size(); ++hits) {
    const std::optional<server_id> owner = cached_owner(requests[hits]);
    if (!owner.has_value()) {
      break;
    }
    out[hits] = *owner;
  }
  requests = requests.subspan(hits);
  out = out.subspan(hits);
  if (requests.empty()) {
    return;
  }

  // Enc has only n distinct outputs, so the block collapses to at most
  // min(|block|, n) distinct probes; encoding happens once per slot.
  std::vector<std::size_t> slot_of(requests.size());
  std::unordered_map<std::size_t, server_id> resolved;
  resolved.reserve(requests.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    slot_of[i] = encoder_.slot_of(requests[i]);
    const auto [it, fresh] = resolved.try_emplace(slot_of[i], server_id{0});
    if (!fresh) {
      continue;
    }
    if (config_.slot_cache && cache_[slot_of[i]].has_value()) {
      it->second = cache_[slot_of[i]]->owner;
    } else {
      pending.push_back(slot_of[i]);
    }
  }

  // Neighbouring circle slots have nearby probes and share their nearest
  // rows, so sorting gives each tile one short arc: its winners' bands
  // tighten on the same few rows and the prefix bound drops the rest.
  std::sort(pending.begin(), pending.end());
  std::vector<server_id> winners(pending.size());
  std::vector<cached_slot> detail(pending.size());
  decode_slots(pending, winners, detail.data());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    resolved[pending[i]] = winners[i];
    if (config_.slot_cache && !frozen_) {
      cache_[pending[i]] = detail[i];
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out[i] = resolved.at(slot_of[i]);
  }
}

void hd_table::warm_slot_cache() const {
  if (!config_.slot_cache || memory_.empty() || frozen_) {
    return;
  }
  // Only unresolved slots are decoded: after a leave that is the n/k
  // share the leaver owned, after a join it is nothing at all — the
  // incremental maintenance already updated every valid entry.
  std::vector<std::size_t> missing;
  for (std::size_t slot = 0; slot < cache_.size(); ++slot) {
    if (!cache_[slot].has_value()) {
      missing.push_back(slot);
    }
  }
  if (missing.empty()) {
    return;
  }
  std::vector<server_id> winners(missing.size());
  std::vector<cached_slot> detail(missing.size());
  decode_slots(missing, winners, detail.data());
  for (std::size_t i = 0; i < missing.size(); ++i) {
    cache_[missing[i]] = detail[i];
  }
}

hdc::query_result hd_table::lookup_detailed(request_id request) const {
  HDHASH_REQUIRE(!memory_.empty(), "lookup on an empty pool");
  return decode(encoder_.encode(request));
}

double hd_table::weight(server_id server) const {
  // Every member owns its primary row, so a count of zero means absent.
  const auto replicas = std::count_if(
      rows_.begin(), rows_.end(),
      [server](const row_entry& row) { return row.owner == server; });
  HDHASH_REQUIRE(replicas > 0, "server not in the pool");
  return static_cast<double>(replicas);
}

table_stats hd_table::stats() const {
  table_stats s;
  const std::size_t words = (config_.dimension + 63) / 64;
  s.memory_bytes = memory_.size() * words * sizeof(std::uint64_t) +
                   cache_.size() * sizeof(std::optional<cached_slot>);
  // Rows held jointly with clones/snapshots cost this instance nothing
  // beyond bookkeeping; epoch-snapshot marginal residency is
  // memory_bytes - shared_bytes.
  s.shared_bytes = memory_.shared_bytes();
  // Every stored row is popcount-compared word by word — unless the
  // accelerator model answers from the slot cache in O(1).
  s.expected_lookup_cost =
      config_.slot_cache
          ? 1.0
          : static_cast<double>(memory_.size()) * static_cast<double>(words);
  if (arena_ != nullptr) {
    const mem::arena_stats arena = arena_->stats();
    s.arena_backing = mem::to_string(arena.backing);
    s.resident_pages = arena.resident_pages;
    s.hugepage_bytes = arena.hugepage_bytes;
  }
  return s;
}

bool hd_table::contains(server_id server) const {
  // Only a primary row (key == owner) makes a member: a replica row's
  // derived key is never one.
  return std::any_of(rows_.begin(), rows_.end(), [server](const row_entry& row) {
    return row.key == server && row.owner == server;
  });
}

std::vector<server_id> hd_table::servers() const {
  // Storage order of the primary rows == join order; replica rows are
  // filtered out by the key != owner test.
  std::vector<server_id> result;
  result.reserve(member_count_);
  for (const row_entry& row : rows_) {
    if (row.key == row.owner) {
      result.push_back(row.owner);
    }
  }
  return result;
}

std::unique_ptr<dynamic_table> hd_table::clone() const {
  return std::make_unique<hd_table>(*this);
}

std::shared_ptr<const dynamic_table> hd_table::snapshot() const {
  // Publish the accelerator steady state: resolve any slots the last
  // membership event invalidated, then share a frozen copy.  The circle
  // and every row are shared copy-on-write, so the snapshot's marginal
  // footprint is the flat row list and the resolved slot array.
  warm_slot_cache();
  auto copy = std::make_shared<hd_table>(*this);
  copy->freeze();
  return copy;
}

std::vector<memory_region> hd_table::fault_regions() {
  // Any fault-injection access may corrupt (or restore) the associative
  // memory, so memoized slot results can no longer be trusted.
  if (config_.slot_cache) {
    cache_.assign(config_.capacity, std::nullopt);
  }
  std::vector<memory_region> regions;
  for (std::span<std::uint64_t> row : memory_.storage()) {
    regions.push_back(memory_region{std::as_writable_bytes(row),
                                    "server-hypervectors"});
  }
  return regions;
}

}  // namespace hdhash
