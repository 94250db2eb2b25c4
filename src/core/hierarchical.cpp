#include "core/hierarchical.hpp"

#include "util/require.hpp"

namespace hdhash {

hierarchical_hd_table::hierarchical_hd_table(const hash64& hash,
                                             hierarchical_config config)
    : hash_(&hash),
      config_(config),
      published_(config.groups + 1),
      inherited_(config.groups + 1) {
  HDHASH_REQUIRE(config.groups >= 2, "hierarchy needs at least two groups");
  hd_table_config router = config_.router;
  // The router only ever holds `groups` keys.
  if (router.capacity <= config_.groups) {
    router.capacity = 2 * config_.groups;
  }
  tables_.reserve(config_.groups + 1);
  tables_.push_back(std::make_shared<hd_table>(hash, router));
  for (std::size_t g = 0; g < config_.groups; ++g) {
    hd_table_config shard = config_.shard;
    // Decorrelate shard circles from each other and from the router.
    shard.seed = config_.shard.seed + 0x9e37 * (g + 1);
    tables_.push_back(std::make_shared<hd_table>(hash, shard));
  }
}

hierarchical_hd_table::hierarchical_hd_table(const hierarchical_hd_table& other)
    : hash_(other.hash_),
      config_(other.config_),
      published_(other.tables_.size()),
      inherited_(other.tables_.size()),
      server_count_(other.server_count_) {
  tables_.reserve(other.tables_.size());
  for (const table_ptr& table : other.tables_) {
    tables_.push_back(std::make_shared<hd_table>(*table));
  }
}

hierarchical_hd_table::hierarchical_hd_table(
    const hierarchical_hd_table& source, std::vector<table_ptr> frozen,
    std::vector<bool> inherited)
    : hash_(source.hash_),
      config_(source.config_),
      tables_(std::move(frozen)),
      published_(tables_),
      inherited_(std::move(inherited)),
      server_count_(source.server_count_) {}

std::size_t hierarchical_hd_table::shard_of(server_id server) const {
  return static_cast<std::size_t>(hash_->hash_u64(server, 0xC1A55) %
                                  groups());
}

void hierarchical_hd_table::join(server_id server, double weight) {
  HDHASH_REQUIRE(!contains(server), "server already in the pool");
  const std::size_t g = shard_of(server);
  tables_[g + 1]->join(server, weight);
  published_[g + 1].reset();
  if (shard(g).server_count() == 1) {
    tables_[0]->join(static_cast<server_id>(g));  // shard became routable
    published_[0].reset();
  }
  ++server_count_;
}

void hierarchical_hd_table::leave(server_id server) {
  HDHASH_REQUIRE(contains(server), "server not in the pool");
  const std::size_t g = shard_of(server);
  tables_[g + 1]->leave(server);
  published_[g + 1].reset();
  if (shard(g).server_count() == 0) {
    tables_[0]->leave(static_cast<server_id>(g));  // shard went dark
    published_[0].reset();
  }
  --server_count_;
}

server_id hierarchical_hd_table::lookup(request_id request) const {
  HDHASH_REQUIRE(server_count_ > 0, "lookup on an empty pool");
  return shard(static_cast<std::size_t>(router().lookup(request)))
      .lookup(request);
}

void hierarchical_hd_table::lookup_batch(std::span<const request_id> requests,
                                         std::span<server_id> out) const {
  HDHASH_REQUIRE(requests.size() == out.size(),
                 "lookup_batch output span must match the request block");
  if (requests.empty()) {
    return;
  }
  HDHASH_REQUIRE(server_count_ > 0, "lookup on an empty pool");
  // One batched router query writes every request's shard into out; on
  // a warm router that is one cache read per request.  Warm shards then
  // answer in place, one more read each.  The first shard miss hands the
  // rest of the block, whose out entries still hold shard ids, to the
  // scatter below.  With the cache off the first request misses.
  router().lookup_batch(requests, out);
  std::size_t hits = 0;
  for (; hits < requests.size(); ++hits) {
    const std::optional<server_id> owner =
        shard(static_cast<std::size_t>(out[hits])).cached_owner(requests[hits]);
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

  // Counting-sort scatter: one flat permutation buffer instead of a
  // vector-of-vectors, so the scatter makes no per-shard allocations and
  // every shard's sub-block reaches that shard's probe-tiled sweep —
  // and through it the dispatched SIMD Hamming kernel — as a single
  // contiguous batch.  out is read as shard ids only here, before the
  // per-group loop writes any answer over them.
  std::vector<std::size_t> offsets(groups() + 1, 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++offsets[static_cast<std::size_t>(out[i]) + 1];
  }
  for (std::size_t g = 0; g < groups(); ++g) {
    offsets[g + 1] += offsets[g];
  }
  std::vector<std::size_t> order(requests.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    order[cursor[static_cast<std::size_t>(out[i])]++] = i;
  }

  std::vector<request_id> block;
  std::vector<server_id> answers;
  for (std::size_t g = 0; g < groups(); ++g) {
    const std::size_t begin = offsets[g];
    const std::size_t end = offsets[g + 1];
    if (begin == end) {
      continue;
    }
    block.resize(end - begin);
    answers.resize(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      block[j - begin] = requests[order[j]];
    }
    shard(g).lookup_batch(block, answers);
    for (std::size_t j = begin; j < end; ++j) {
      out[order[j]] = answers[j - begin];
    }
  }
}

double hierarchical_hd_table::weight(server_id server) const {
  HDHASH_REQUIRE(contains(server), "server not in the pool");
  return shard(shard_of(server)).weight(server);
}

table_stats hierarchical_hd_table::stats() const {
  table_stats s = router().stats();
  if (inherited_[0]) {
    s.shared_bytes = s.memory_bytes;
  }
  // The shell itself: its table pointers.
  s.memory_bytes += (tables_.capacity() + published_.capacity()) *
                    sizeof(table_ptr);
  double occupied = 0.0;
  double shard_cost = 0.0;
  for (std::size_t g = 0; g < groups(); ++g) {
    const table_stats shard_stats = shard(g).stats();
    s.memory_bytes += shard_stats.memory_bytes;
    s.shared_bytes += inherited_[g + 1] ? shard_stats.memory_bytes
                                        : shard_stats.shared_bytes;
    if (shard(g).server_count() > 0) {
      occupied += 1.0;
      shard_cost += shard_stats.expected_lookup_cost;
    }
  }
  // Router query plus the mean occupied shard's query — the
  // O(groups + k/groups) scaling the hierarchy buys.
  if (occupied > 0.0) {
    s.expected_lookup_cost += shard_cost / occupied;
  }
  return s;
}

bool hierarchical_hd_table::contains(server_id server) const {
  return shard(shard_of(server)).contains(server);
}

std::vector<server_id> hierarchical_hd_table::servers() const {
  std::vector<server_id> result;
  result.reserve(server_count_);
  for (std::size_t g = 0; g < groups(); ++g) {
    for (const server_id s : shard(g).servers()) {
      result.push_back(s);
    }
  }
  return result;
}

std::unique_ptr<dynamic_table> hierarchical_hd_table::clone() const {
  return std::unique_ptr<dynamic_table>(new hierarchical_hd_table(*this));
}

std::shared_ptr<const dynamic_table> hierarchical_hd_table::snapshot() const {
  std::vector<bool> inherited(tables_.size());
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    inherited[i] = published_[i] != nullptr;
    if (!inherited[i]) {
      // Warm the live table first so its next re-freeze only re-decodes
      // the slots later events invalidate, then freeze the copy so shard
      // workers can query it concurrently.
      tables_[i]->warm_slot_cache();
      published_[i] = std::make_shared<hd_table>(*tables_[i]);
      published_[i]->freeze();
    }
  }
  return std::shared_ptr<const dynamic_table>(
      new hierarchical_hd_table(*this, published_, std::move(inherited)));
}

std::vector<memory_region> hierarchical_hd_table::fault_regions() {
  // The regions may be written, so no published copy stays current.
  published_.assign(tables_.size(), nullptr);
  std::vector<memory_region> regions;
  for (const table_ptr& table : tables_) {
    const auto table_regions = table->fault_regions();
    regions.insert(regions.end(), table_regions.begin(), table_regions.end());
  }
  return regions;
}

}  // namespace hdhash
