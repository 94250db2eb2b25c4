#include "core/hd_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "fault/injector.hpp"
#include "hashing/registry.hpp"
#include "hdc/similarity.hpp"
#include "support/scripted_hash.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace hdhash {
namespace {

hd_table_config small_config() {
  hd_table_config config;
  config.dimension = 2048;
  config.capacity = 64;
  return config;
}

TEST(HdTableTest, EmptyLookupThrows) {
  const hd_table table(default_hash(), small_config());
  EXPECT_THROW(table.lookup(1), precondition_error);
}

TEST(HdTableTest, JoinLeaveContains) {
  hd_table table(default_hash(), small_config());
  table.join(10);
  table.join(20);
  EXPECT_TRUE(table.contains(10));
  EXPECT_TRUE(table.contains(20));
  EXPECT_EQ(table.server_count(), 2u);
  table.leave(10);
  EXPECT_FALSE(table.contains(10));
  EXPECT_EQ(table.server_count(), 1u);
}

TEST(HdTableTest, DuplicateJoinThrows) {
  hd_table table(default_hash(), small_config());
  table.join(10);
  EXPECT_THROW(table.join(10), precondition_error);
}

TEST(HdTableTest, LeaveAbsentThrows) {
  hd_table table(default_hash(), small_config());
  EXPECT_THROW(table.leave(10), precondition_error);
}

TEST(HdTableTest, CapacityEnforced) {
  hd_table_config config;
  config.dimension = 512;
  config.capacity = 4;
  hd_table table(default_hash(), config);
  table.join(1);
  table.join(2);
  table.join(3);  // k = 3, n = 4: n > k still holds
  EXPECT_THROW(table.join(4), precondition_error);
}

TEST(HdTableTest, SingleServerTakesAll) {
  hd_table table(default_hash(), small_config());
  table.join(77);
  for (request_id r = 0; r < 200; ++r) {
    EXPECT_EQ(table.lookup(r), 77u);
  }
}

TEST(HdTableTest, LookupMatchesNearestOnCircleGeometry) {
  // Pin servers to known slots; every request must resolve to the server
  // whose slot is closest on the circle (the paper's Figure 1 semantics).
  testing::scripted_hash hash;
  constexpr std::size_t kCapacity = 32;
  hash.pin_u64(101, 4);    // server 101 -> slot 4
  hash.pin_u64(102, 20);   // server 102 -> slot 20
  hash.pin_u64(5001, 6);   // request near slot 4
  hash.pin_u64(5002, 19);  // request near slot 20
  hash.pin_u64(5003, 28);  // wraps: distance 8 to slot 4, 8 to slot 20 (tie)

  hd_table_config config;
  config.dimension = 4096;
  config.capacity = kCapacity;
  hd_table table(hash, config);
  table.join(101);
  table.join(102);

  EXPECT_EQ(table.lookup(5001), 101u);
  EXPECT_EQ(table.lookup(5002), 102u);
  // Exact tie in circle distance: both stored vectors are equidistant,
  // and the argmax must break toward the smaller server id.
  EXPECT_EQ(table.lookup(5003), 101u);
}

TEST(HdTableTest, DirectionOfRotationDoesNotMatter) {
  // Unlike consistent hashing, HD hashing picks the *nearest* node in
  // either direction (paper Figure 1 caption).
  testing::scripted_hash hash;
  hash.pin_u64(1, 10);    // server at slot 10
  hash.pin_u64(2, 16);    // server at slot 16
  hash.pin_u64(900, 12);  // request at slot 12: 2 away CW from 10, 4 from 16
  hd_table_config config;
  config.dimension = 4096;
  config.capacity = 32;
  hd_table table(hash, config);
  table.join(1);
  table.join(2);
  // Consistent hashing (clockwise successor) would pick 16 -> server 2;
  // HD hashing must pick the nearer slot 10 -> server 1.
  EXPECT_EQ(table.lookup(900), 1u);
}

TEST(HdTableTest, LookupDetailedExposesMargin) {
  hd_table table(default_hash(), small_config());
  table.join(1);
  table.join(2);
  const auto detail = table.lookup_detailed(1234);
  EXPECT_EQ(detail.key, table.lookup(1234));
  EXPECT_GE(detail.margin(), 0.0);
  EXPECT_GT(detail.best_score, 0.0);
}

TEST(HdTableTest, CloneBehavesIdentically) {
  hd_table table(default_hash(), small_config());
  for (server_id s = 1; s <= 10; ++s) {
    table.join(s * 111);
  }
  const auto copy = table.clone();
  EXPECT_EQ(copy->name(), table.name());
  for (request_id r = 0; r < 500; ++r) {
    EXPECT_EQ(copy->lookup(r), table.lookup(r));
  }
}

TEST(HdTableTest, SlotCacheGivesIdenticalAnswers) {
  hd_table_config cached = small_config();
  cached.slot_cache = true;
  hd_table plain(default_hash(), small_config());
  hd_table with_cache(default_hash(), cached);
  for (server_id s = 1; s <= 12; ++s) {
    plain.join(s * 7);
    with_cache.join(s * 7);
  }
  for (request_id r = 0; r < 1000; ++r) {
    EXPECT_EQ(plain.lookup(r), with_cache.lookup(r));
  }
  // Membership change invalidates the cache.
  plain.leave(7);
  with_cache.leave(7);
  for (request_id r = 0; r < 1000; ++r) {
    EXPECT_EQ(plain.lookup(r), with_cache.lookup(r));
  }
}

TEST(HdTableTest, WarmedCacheAnswersLikeColdCache) {
  hd_table_config cached = small_config();
  cached.slot_cache = true;
  hd_table warm(default_hash(), cached);
  hd_table cold(default_hash(), small_config());
  for (server_id s = 1; s <= 9; ++s) {
    warm.join(s * 13);
    cold.join(s * 13);
  }
  warm.warm_slot_cache();
  for (request_id r = 0; r < 500; ++r) {
    EXPECT_EQ(warm.lookup(r), cold.lookup(r));
  }
}

TEST(HdTableTest, WarmCacheIsNoopWhenDisabled) {
  hd_table table(default_hash(), small_config());
  table.join(1);
  table.warm_slot_cache();  // must not crash or allocate a cache
  EXPECT_EQ(table.lookup(5), 1u);
}

TEST(HdTableTest, FaultRegionsCoverServerRows) {
  hd_table table(default_hash(), small_config());
  table.join(1);
  table.join(2);
  table.join(3);
  auto regions = table.fault_regions();
  ASSERT_EQ(regions.size(), 3u);
  for (const auto& region : regions) {
    EXPECT_EQ(region.label, "server-hypervectors");
    EXPECT_EQ(region.bytes.size(), 2048u / 8u);
  }
  EXPECT_EQ(table.fault_bits(), 3u * 2048u);
}

TEST(HdTableTest, RobustToFlipsWithinMargin) {
  // The paper's core robustness claim, as an exact property: flipping
  // strictly fewer than margin/2 bits of the winning row can never
  // change any request's assignment.
  hd_table table(default_hash(), small_config());
  for (server_id s = 1; s <= 8; ++s) {
    table.join(s * 1000);
  }
  const auto shadow = table.clone();

  // A request whose winner/runner-up margin exceeds 2*budget can never be
  // remapped by `budget` flips (each flip moves one similarity by 1).
  // Requests sitting exactly between two servers have margin 0 and are
  // legitimately sensitive, so the guarantee is conditioned on margin.
  constexpr std::size_t kBudget = 9;
  std::vector<request_id> safe_requests;
  for (request_id r = 0; r < 200; ++r) {
    if (table.lookup_detailed(r).margin() > 2.0 * kBudget) {
      safe_requests.push_back(r);
    }
  }
  ASSERT_GT(safe_requests.size(), 100u);  // margins are typically huge

  bit_flip_injector injector(1234);
  for (int trial = 0; trial < 5; ++trial) {
    scoped_injection injection(injector, table, kBudget);
    for (const request_id r : safe_requests) {
      EXPECT_EQ(table.lookup(r), shadow->lookup(r)) << "request " << r;
    }
  }
}

TEST(HdTableTest, FaultInjectionInvalidatesSlotCache) {
  // With the cache enabled, corruption must not serve stale pre-fault
  // results: fault_regions() clears the memoization.
  hd_table_config config;
  config.dimension = 256;
  config.capacity = 8;
  config.slot_cache = true;
  hd_table table(default_hash(), config);
  table.join(1);
  table.join(2);
  // Warm the cache.
  std::vector<server_id> before;
  for (request_id r = 0; r < 50; ++r) {
    before.push_back(table.lookup(r));
  }
  // Massive corruption: zero server 1's entire row via the fault surface.
  {
    auto regions = table.fault_regions();
    for (auto& b : regions[0].bytes) {
      b = std::byte{0xff};
    }
  }
  // The batch path reads the cache first, so it runs before lookup()
  // refills it: it must answer as lookup() does, not from a stale entry.
  std::vector<request_id> requests(before.size());
  std::iota(requests.begin(), requests.end(), request_id{0});
  std::vector<server_id> batched(requests.size());
  table.lookup_batch(requests, batched);
  // At least one request must now answer differently (d=256 is small
  // enough that a fully inverted row loses every query it used to win).
  std::size_t changed = 0;
  for (request_id r = 0; r < 50; ++r) {
    EXPECT_EQ(batched[r], table.lookup(r)) << "request " << r;
    changed += table.lookup(r) != before[r] ? 1 : 0;
  }
  EXPECT_GT(changed, 0u);
  EXPECT_NE(batched, before);
}

TEST(HdTableTest, MembershipQueriesFollowAReferenceUnderWeightedChurn) {
  // The row list is the only membership record: contains(), weight(),
  // servers() and server_count() must agree with a plain reference map
  // after every weighted join and leave, servers() must keep join order,
  // and a leave must drop every row its join stored (replicas included).
  hd_table_config config = small_config();
  config.capacity = 128;
  hd_table table(default_hash(), config);
  std::map<server_id, double> reference;
  std::vector<server_id> join_order;
  std::map<server_id, std::size_t> join_bytes;  // memory the join added
  std::set<server_id> departed;
  std::size_t rows = 0;
  xoshiro256 rng(2027);

  for (int step = 0; step < 400; ++step) {
    const bool room = rows + 3 < config.capacity;
    const bool join = reference.empty() || (room && uniform_below(rng, 2) == 0);
    if (join) {
      const server_id server = 1 + uniform_below(rng, 500);
      if (reference.contains(server)) {
        EXPECT_THROW(table.join(server), precondition_error);
        continue;
      }
      const auto weight = static_cast<double>(1 + uniform_below(rng, 3));
      const std::size_t before = table.stats().memory_bytes;
      table.join(server, weight);
      join_bytes[server] = table.stats().memory_bytes - before;
      reference[server] = weight;
      join_order.push_back(server);
      departed.erase(server);
      rows += static_cast<std::size_t>(weight);
    } else {
      const server_id server =
          join_order[uniform_below(rng, join_order.size())];
      const std::size_t before = table.stats().memory_bytes;
      table.leave(server);
      EXPECT_EQ(before - table.stats().memory_bytes, join_bytes[server])
          << "leave of " << server << " left rows behind";
      rows -= static_cast<std::size_t>(reference[server]);
      reference.erase(server);
      std::erase(join_order, server);
      departed.insert(server);
      EXPECT_THROW((void)table.weight(server), precondition_error);
    }

    ASSERT_EQ(table.server_count(), reference.size()) << "step " << step;
    ASSERT_EQ(table.servers(), join_order) << "step " << step;
    for (const auto& [server, weight] : reference) {
      ASSERT_TRUE(table.contains(server)) << server;
      ASSERT_EQ(table.weight(server), weight) << server;
    }
    for (const server_id server : departed) {
      ASSERT_FALSE(table.contains(server)) << server;
    }
  }
  EXPECT_FALSE(departed.empty());
}

TEST(HdTableTest, ReplicaRowKeysAreNeverMembers) {
  // Pinning the replica-key derivation puts known ids on the replica
  // rows: they are stored keys, but no membership query may treat them
  // as servers, and they keep their ids reserved until their owner
  // leaves.
  testing::scripted_hash hash;
  hash.pin_pair(7, 1, 9001);
  hash.pin_pair(7, 2, 9002);
  hd_table table(hash, small_config());
  table.join(7, 3.0);
  table.join(8);
  EXPECT_EQ(table.weight(7), 3.0);
  EXPECT_EQ(table.server_count(), 2u);
  EXPECT_EQ(table.servers(), (std::vector<server_id>{7, 8}));
  for (const server_id replica : {server_id{9001}, server_id{9002}}) {
    EXPECT_FALSE(table.contains(replica));
    EXPECT_THROW((void)table.weight(replica), precondition_error);
    EXPECT_THROW(table.leave(replica), precondition_error);
    EXPECT_THROW(table.join(replica), precondition_error);
  }
  table.leave(7);
  table.join(9001);
  EXPECT_TRUE(table.contains(9001));
  EXPECT_EQ(table.servers(), (std::vector<server_id>{8, 9001}));
}

TEST(HdTableTest, ConfigAccessors) {
  const hd_table table(default_hash(), small_config());
  EXPECT_EQ(table.config().dimension, 2048u);
  EXPECT_EQ(table.encoder().size(), 64u);
  EXPECT_EQ(table.name(), "hd");
}

}  // namespace
}  // namespace hdhash
