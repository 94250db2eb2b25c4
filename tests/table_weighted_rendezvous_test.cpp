#include "table/weighted_rendezvous.hpp"

#include <map>

#include <gtest/gtest.h>

#include "hashing/registry.hpp"
#include "table/rendezvous.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

TEST(WeightedRendezvousTest, RejectsInvalidWeights) {
  weighted_rendezvous_table table(default_hash());
  EXPECT_THROW(table.join(1, 0.0), precondition_error);
  EXPECT_THROW(table.join(1, -2.0), precondition_error);
}

TEST(WeightedRendezvousTest, WeightAccessors) {
  weighted_rendezvous_table table(default_hash());
  table.join(5, 2.5);
  table.join(6);  // default weight 1
  EXPECT_DOUBLE_EQ(table.weight(5), 2.5);
  EXPECT_DOUBLE_EQ(table.weight(6), 1.0);
}

TEST(WeightedRendezvousTest, EqualWeightsSpreadUniformly) {
  weighted_rendezvous_table table(default_hash());
  constexpr std::size_t kServers = 8;
  for (server_id s = 1; s <= kServers; ++s) {
    table.join(s * 577);
  }
  std::map<server_id, std::size_t> counts;
  constexpr std::size_t kRequests = 40'000;
  for (request_id r = 0; r < kRequests; ++r) {
    ++counts[table.lookup(r * 0x9e3779b97f4a7c15ULL)];
  }
  const double expected = static_cast<double>(kRequests) / kServers;
  for (const auto& [server, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.10);
  }
}

TEST(WeightedRendezvousTest, SharesProportionalToWeights) {
  // Server weights 1 : 2 : 3 should carry 1/6, 2/6, 3/6 of the traffic.
  weighted_rendezvous_table table(default_hash());
  table.join(101, 1.0);
  table.join(102, 2.0);
  table.join(103, 3.0);
  std::map<server_id, std::size_t> counts;
  constexpr std::size_t kRequests = 60'000;
  for (request_id r = 0; r < kRequests; ++r) {
    ++counts[table.lookup(r * 0x9e3779b97f4a7c15ULL)];
  }
  EXPECT_NEAR(static_cast<double>(counts[101]), kRequests / 6.0,
              kRequests * 0.01);
  EXPECT_NEAR(static_cast<double>(counts[102]), kRequests / 3.0,
              kRequests * 0.015);
  EXPECT_NEAR(static_cast<double>(counts[103]), kRequests / 2.0,
              kRequests * 0.015);
}

TEST(WeightedRendezvousTest, LeaveOnlyMovesDepartedServersKeys) {
  weighted_rendezvous_table table(default_hash());
  for (server_id s = 1; s <= 10; ++s) {
    table.join(s * 31, 0.5 + static_cast<double>(s % 3));
  }
  std::vector<server_id> before;
  for (request_id r = 0; r < 3000; ++r) {
    before.push_back(table.lookup(r));
  }
  table.leave(4 * 31);
  for (request_id r = 0; r < 3000; ++r) {
    if (before[r] != 4 * 31) {
      EXPECT_EQ(table.lookup(r), before[r]);
    } else {
      EXPECT_NE(table.lookup(r), 4 * 31);
    }
  }
}

TEST(WeightedRendezvousTest, WeightIncreaseOnlyAttractsKeys) {
  // Raising one server's weight must only move requests *to* it.  A
  // weight change is a leave and a re-join at the new weight, the path
  // scenario weight changes take.
  weighted_rendezvous_table table(default_hash());
  for (server_id s = 1; s <= 10; ++s) {
    table.join(s * 83);
  }
  std::vector<server_id> before;
  for (request_id r = 0; r < 3000; ++r) {
    before.push_back(table.lookup(r));
  }
  table.leave(5 * 83);
  table.join(5 * 83, 3.0);
  for (request_id r = 0; r < 3000; ++r) {
    const server_id now = table.lookup(r);
    if (now != before[r]) {
      EXPECT_EQ(now, 5u * 83u) << "request " << r;
    }
  }
}

TEST(WeightedRendezvousTest, UnitWeightsAgreeWithScoringInvariance) {
  // The -w/ln(u) transform is monotone in u for fixed w, so with all
  // weights equal the winner is the plain HRW argmax.
  weighted_rendezvous_table weighted(default_hash());
  rendezvous_table plain(default_hash());
  for (server_id s = 1; s <= 16; ++s) {
    weighted.join(s * 409);
    plain.join(s * 409);
  }
  for (request_id r = 0; r < 2000; ++r) {
    EXPECT_EQ(weighted.lookup(r), plain.lookup(r));
  }
}

TEST(WeightedRendezvousTest, CloneCarriesWeights) {
  weighted_rendezvous_table table(default_hash());
  table.join(1, 2.0);
  const auto copy = table.clone();
  auto* weighted_copy =
      dynamic_cast<weighted_rendezvous_table*>(copy.get());
  ASSERT_NE(weighted_copy, nullptr);
  EXPECT_DOUBLE_EQ(weighted_copy->weight(1), 2.0);
}

TEST(WeightedRendezvousTest, FaultSurfaceCoversIdsAndWeights) {
  weighted_rendezvous_table table(default_hash());
  table.join(1);
  table.join(2);
  auto regions = table.fault_regions();
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].label, "server-entries");
  EXPECT_EQ(regions[0].bytes.size(), 2 * 16u);  // (id, weight) pairs
}

}  // namespace
}  // namespace hdhash
