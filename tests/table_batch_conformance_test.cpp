/// Batch-lookup conformance: for every algorithm, lookup_batch must
/// produce exactly the assignments of element-wise lookup() — including
/// on fault-injected tables, where the batch path must reproduce the
/// scalar path's (possibly corrupted) answers bit for bit.  This is the
/// contract that lets the emulator and experiment drivers feed batches
/// everywhere without changing any measured result.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/hd_table.hpp"
#include "core/hierarchical.hpp"
#include "exp/factory.hpp"
#include "fault/injector.hpp"
#include "hashing/registry.hpp"
#include "hashing/splitmix_hash.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 2048;  // keep HD construction fast in unit tests
  options.hd.capacity = 256;
  options.maglev_table_size = 4099;  // small prime
  return options;
}

std::vector<request_id> request_block(std::size_t count,
                                      std::uint64_t seed = 0x8a7c) {
  std::vector<request_id> block;
  block.reserve(count);
  xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    block.push_back(splitmix_hash::mix(rng()));
  }
  return block;
}

class BatchConformanceTest
    : public ::testing::TestWithParam<std::string_view> {};

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BatchConformanceTest,
                         ::testing::Values("modular", "consistent",
                                           "consistent-rank", "rendezvous",
                                           "weighted-rendezvous", "bounded",
                                           "jump", "maglev", "hd",
                                           "hd-hierarchical"),
                         [](const auto& info) {
                           std::string name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(BatchConformanceTest, BatchMatchesScalarLookup) {
  auto table = make_table(GetParam(), fast_options());
  for (server_id s = 1; s <= 24; ++s) {
    table->join(s * 1009);
  }
  const auto requests = request_block(2000);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i])) << "request " << i;
  }
}

TEST_P(BatchConformanceTest, AllocatingOverloadAgrees) {
  auto table = make_table(GetParam(), fast_options());
  for (server_id s = 1; s <= 8; ++s) {
    table->join(s * 37);
  }
  const auto requests = request_block(300);
  const std::vector<server_id> batched = table->lookup_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST_P(BatchConformanceTest, EmptyBlockIsANoopEvenOnEmptyPool) {
  auto table = make_table(GetParam(), fast_options());
  table->lookup_batch(std::span<const request_id>{},
                      std::span<server_id>{});  // must not throw
}

TEST_P(BatchConformanceTest, MismatchedSpansThrow) {
  auto table = make_table(GetParam(), fast_options());
  table->join(5);
  const std::vector<request_id> requests{1, 2, 3};
  std::vector<server_id> out(2);
  EXPECT_THROW(table->lookup_batch(requests, out), precondition_error);
}

TEST_P(BatchConformanceTest, NonEmptyBlockOnEmptyPoolThrows) {
  auto table = make_table(GetParam(), fast_options());
  const std::vector<request_id> requests{1};
  std::vector<server_id> out(1);
  EXPECT_THROW(table->lookup_batch(requests, out), precondition_error);
}

TEST_P(BatchConformanceTest, BatchMatchesScalarUnderFaultInjection) {
  // The batch path must reproduce the scalar path's answers even when
  // the table's live memory is corrupted — the robustness experiments
  // depend on batch and scalar sweeps measuring the same thing.
  auto table = make_table(GetParam(), fast_options());
  for (server_id s = 1; s <= 16; ++s) {
    table->join(s * 271);
  }
  const auto requests = request_block(800, 0x1dea);
  bit_flip_injector injector(99);
  for (int trial = 0; trial < 3; ++trial) {
    scoped_injection injection(injector, *table, 8);
    std::vector<server_id> batched(requests.size());
    table->lookup_batch(requests, batched);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batched[i], table->lookup(requests[i]))
          << "trial " << trial << " request " << i;
    }
  }
}

TEST(BatchHdTest, SlotCacheAndBatchAgree) {
  // A cold batched table, a scalar-warmed cached table and a plain
  // scalar table must agree on every assignment.
  table_options options = fast_options();
  auto plain = make_table("hd", options);
  options.hd.slot_cache = true;
  auto cached = make_table("hd", options);
  for (server_id s = 1; s <= 12; ++s) {
    plain->join(s * 101);
    cached->join(s * 101);
  }
  const auto requests = request_block(1500, 0xcafe);
  // Warm the cache through the batch path.
  std::vector<server_id> cached_batch(requests.size());
  cached->lookup_batch(requests, cached_batch);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(cached_batch[i], plain->lookup(requests[i]));
    EXPECT_EQ(cached->lookup(requests[i]), plain->lookup(requests[i]));
  }
}

/// A block of `size` requests whose first slot-cache miss sits at
/// `first_miss`: hits before it, then a miss on every third index.
std::vector<request_id> block_with_first_miss(
    const std::vector<request_id>& hits, const std::vector<request_id>& misses,
    std::size_t size, std::size_t first_miss) {
  std::vector<request_id> block;
  std::size_t h = 0;
  std::size_t m = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const bool miss = i >= first_miss && (i - first_miss) % 3 == 0;
    block.push_back(miss ? misses[m++ % misses.size()]
                         : hits[h++ % hits.size()]);
  }
  return block;
}

/// A live slot-cached table answers the leading hits of a block from
/// its cache and decodes the rest from the first miss on.  Every block
/// runs on its own clone, so each one meets the same cache state, and
/// lookup() on another clone is the reference.
void expect_mixed_blocks_conform(const dynamic_table& table,
                                 const std::vector<request_id>& hits,
                                 const std::vector<request_id>& misses,
                                 const std::string& when) {
  ASSERT_FALSE(hits.empty()) << when;
  ASSERT_FALSE(misses.empty()) << when;
  constexpr std::size_t kBlock = 64;
  constexpr server_id kUnanswered = 0xdead'beefULL;
  for (const std::size_t first_miss : {std::size_t{0}, kBlock / 2, kBlock - 1}) {
    const auto block = block_with_first_miss(hits, misses, kBlock, first_miss);
    const auto live = table.clone();
    const auto reference = table.clone();
    std::vector<server_id> batched(kBlock, kUnanswered);
    live->lookup_batch(block, batched);
    for (std::size_t i = 0; i < kBlock; ++i) {
      EXPECT_EQ(batched[i], reference->lookup(block[i]))
          << when << ", first miss " << first_miss << ", request " << i;
    }
    std::vector<server_id> again(kBlock, kUnanswered);
    live->lookup_batch(block, again);
    EXPECT_EQ(again, batched) << when << ", first miss " << first_miss;
  }
}

TEST(BatchSlotCacheTest, FlatBlocksMixingHitsAndMisses) {
  hd_table_config config = fast_options().hd;
  config.slot_cache = true;
  hd_table table(default_hash(), config);
  for (server_id s = 1; s <= 24; ++s) {
    table.join(s * 1009);
  }
  table.warm_slot_cache();
  table.leave(5 * 1009);  // the slots it owned go unresolved
  std::vector<request_id> hits;
  std::vector<request_id> misses;
  for (const request_id r : request_block(2000, 0x5107)) {
    (table.cached_owner(r).has_value() ? hits : misses).push_back(r);
  }
  expect_mixed_blocks_conform(table, hits, misses, "after a leave");
}

TEST(BatchSlotCacheTest, HierarchicalBlocksMixingHitsAndMisses) {
  table_options options = fast_options();
  options.hd.slot_cache = true;
  auto owned = make_table("hd-hierarchical", options);
  auto& table = dynamic_cast<hierarchical_hd_table&>(*owned);
  std::vector<std::vector<server_id>> members(table.groups());
  for (server_id s = 1; s <= 24; ++s) {
    table.join(s * 1009);
    members[table.shard_of(s * 1009)].push_back(s * 1009);
  }
  const auto pool = request_block(2000, 0x6120);
  std::vector<server_id> owner(pool.size());
  // Splits the pool by whether its current owner passes `misses_if`,
  // after a batch over the pool resolved every slot it touches.
  const auto split = [&](auto misses_if, std::vector<request_id>& hits,
                         std::vector<request_id>& misses) {
    table.lookup_batch(pool, owner);
    hits.clear();
    misses.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (misses_if(owner[i]) ? misses : hits).push_back(pool[i]);
    }
  };
  std::vector<request_id> hits;
  std::vector<request_id> misses;

  // Group miss: a member leaves a group that keeps others, so only the
  // group's slots it owned go unresolved; the router is untouched.
  const auto shared = std::find_if(members.begin(), members.end(),
                                   [](const auto& m) { return m.size() >= 2; });
  ASSERT_NE(shared, members.end());
  const server_id leaver = shared->back();
  split([&](server_id s) { return s == leaver; }, hits, misses);
  table.leave(leaver);
  expect_mixed_blocks_conform(table, hits, misses, "group miss");

  // Router miss: a group empties, so the router's slots it owned go
  // unresolved.
  std::size_t emptied = 0;
  while (emptied < members.size() &&
         (members.begin() + emptied == shared || members[emptied].empty())) {
    ++emptied;
  }
  ASSERT_LT(emptied, members.size());
  split([&](server_id s) { return table.shard_of(s) == emptied; }, hits,
        misses);
  for (const server_id s : members[emptied]) {
    table.leave(s);
  }
  expect_mixed_blocks_conform(table, hits, misses, "router miss");

  // Refill: the group comes back with a new member.  Neither the
  // router's nor the group's unresolved slots are decoded by the join.
  server_id newcomer = 1;
  while (table.shard_of(newcomer) != emptied || table.contains(newcomer)) {
    ++newcomer;
  }
  table.join(newcomer);
  expect_mixed_blocks_conform(table, hits, misses, "refilled group");
}

TEST(BatchHdTest, RawArgmaxDecodingAlsoConforms) {
  // lattice_decode off exercises the raw Eq. 2 scoring in the tiled
  // sweep, including floating-point tie behaviour.
  table_options options = fast_options();
  options.hd.lattice_decode = false;
  auto table = make_table("hd", options);
  for (server_id s = 1; s <= 10; ++s) {
    table->join(s * 53);
  }
  const auto requests = request_block(1200, 0xbeef);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST(BatchHdTest, CosineMetricAlsoConforms) {
  table_options options = fast_options();
  options.hd.metric = hdc::metric::cosine;
  options.hd.lattice_decode = false;
  auto table = make_table("hd", options);
  for (server_id s = 1; s <= 10; ++s) {
    table->join(s * 67);
  }
  const auto requests = request_block(800, 0xfeed);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

TEST(BatchHdTest, TwinRowsTieToTheSmallerServer) {
  // Servers whose ids fall on the same circle slot store identical rows,
  // so every probe sees both at exactly the same distance and the tie
  // goes to the smaller id.  Joining the larger id of each pair first
  // makes the winner a later row that only *ties* the incumbent: a
  // batch sweep that drops rows on a bound admitting ties, instead of
  // only sure losses, hands those slots to the wrong twin.
  for (const bool lattice : {true, false}) {
    hd_table_config config;
    config.dimension = 2048;
    config.capacity = 256;
    config.lattice_decode = lattice;
    hd_table table(default_hash(), config);
    std::unordered_map<std::size_t, server_id> first_on_slot;
    std::vector<server_id> smaller_twins;
    for (server_id id = 1; smaller_twins.size() < 48; ++id) {
      const auto [it, fresh] =
          first_on_slot.try_emplace(table.encoder().slot_of(id), id);
      if (fresh || it->second == 0) {
        continue;  // first id on its slot, or the slot already has a pair
      }
      table.join(id);
      table.join(it->second);
      smaller_twins.push_back(it->second);
      it->second = 0;
    }
    const auto requests = request_block(4000, 0x7a1e);
    std::vector<server_id> batched(requests.size());
    table.lookup_batch(requests, batched);
    std::size_t twin_answers = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const server_id expected = table.lookup(requests[i]);
      EXPECT_EQ(batched[i], expected)
          << "lattice " << lattice << " request " << i;
      twin_answers += std::count(smaller_twins.begin(), smaller_twins.end(),
                                 expected) > 0;
    }
    // Every answer comes from a pair, so ties decided every request.
    EXPECT_EQ(twin_answers, requests.size());
  }
}

class BatchHdDimensionTest : public ::testing::TestWithParam<std::size_t> {};

// Around the batch sweep's prefix: shorter than it (prefix-only path),
// exactly it, one bit past it (a partial boundary word after the
// prefix), and the paper's d = 10,000.
INSTANTIATE_TEST_SUITE_P(
    AroundThePrefix, BatchHdDimensionTest,
    ::testing::Values(std::size_t{64}, std::size_t{1000},
                      hd_table::kDecodePrefixWords * 64,
                      hd_table::kDecodePrefixWords * 64 + 1,
                      std::size_t{10'000}),
    [](const auto& info) { return "d" + std::to_string(info.param); });

TEST_P(BatchHdDimensionTest, BatchMatchesScalarLookup) {
  for (const bool lattice : {true, false}) {
    hd_table_config config;
    config.dimension = GetParam();
    config.capacity = 64;
    config.lattice_decode = lattice;
    hd_table table(default_hash(), config);
    for (server_id s = 1; s <= 40; ++s) {
      table.join(s * 131);
    }
    const auto requests = request_block(1000, 0xd17e);
    bit_flip_injector injector(GetParam());
    for (const std::size_t flips : {std::size_t{0}, std::size_t{16}}) {
      scoped_injection injection(injector, table, flips);
      std::vector<server_id> batched(requests.size());
      table.lookup_batch(requests, batched);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(batched[i], table.lookup(requests[i]))
            << "lattice " << lattice << " flips " << flips << " request "
            << i;
      }
    }
  }
}

TEST(BatchHdTest, HeavilyCorruptedTableConforms) {
  // Thousands of flips over 16 rows of 2048 bits push every row far from
  // its circle vector: at 4,000 (about 250 bits a row) winners sit far
  // from their probes, and at 12,000 rows are near random, so the prefix
  // bound seldom prunes and winners change many times per sweep.  The
  // sweep must still agree with the unpruned decode().
  table_options options = fast_options();
  auto table = make_table("hd", options);
  for (server_id s = 1; s <= 16; ++s) {
    table->join(s * 409);
  }
  const auto requests = request_block(1000, 0xbad5);
  bit_flip_injector injector(7);
  for (const std::size_t flips : {std::size_t{4000}, std::size_t{12'000}}) {
    scoped_injection injection(injector, *table, flips);
    std::vector<server_id> batched(requests.size());
    table->lookup_batch(requests, batched);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(batched[i], table->lookup(requests[i]))
          << "flips " << flips << " request " << i;
    }
  }
}

TEST(BatchHdTest, WeightedPoolConforms) {
  table_options options = fast_options();
  auto table = make_table("hd", options);
  table->join(100, 1.0);
  table->join(200, 2.0);
  table->join(300, 3.0);
  const auto requests = request_block(1000, 0xf00d);
  std::vector<server_id> batched(requests.size());
  table->lookup_batch(requests, batched);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched[i], table->lookup(requests[i]));
  }
}

}  // namespace
}  // namespace hdhash
