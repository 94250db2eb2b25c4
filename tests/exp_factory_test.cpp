/// make_table suite: every algorithm builds by name, each option
/// reaches the built table, an unknown name's error lists every valid
/// algorithm, and the stats() introspection every algorithm must fill
/// in.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hd_table.hpp"
#include "core/hierarchical.hpp"
#include "exp/factory.hpp"
#include "table/maglev.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 256;
  options.maglev_table_size = 4099;
  return options;
}

TEST(FactoryTest, EveryAlgorithmBuildsByName) {
  for (const auto name : all_algorithms()) {
    auto table = make_table(name, fast_options());
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->name(), name);
  }
}

TEST(FactoryTest, UnknownAlgorithmErrorListsValidNames) {
  const auto expect_lists_every_algorithm = [](const auto& call) {
    try {
      call();
      FAIL() << "expected precondition_error";
    } catch (const precondition_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("quantum"), std::string::npos);
      for (const auto name : all_algorithms()) {
        EXPECT_NE(message.find(std::string(name)), std::string::npos)
            << "error should list " << name;
      }
    }
  };
  expect_lists_every_algorithm([] { (void)make_table("quantum"); });
  expect_lists_every_algorithm(
      [] { (void)algorithm_supports_weights("quantum"); });
}

TEST(FactoryTest, HdOptionsReachTheBuiltTable) {
  table_options options;
  options.hd.dimension = 512;
  options.hd.capacity = 128;
  options.hd.metric = hdc::metric::cosine;
  options.hd.policy = hdc::flip_policy::independent;
  options.hd.seed = 7;
  options.hd.slot_cache = true;
  options.hd.lattice_decode = false;
  const auto table = make_table("hd", options);
  const auto* hd = dynamic_cast<const hd_table*>(table.get());
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->config().dimension, 512u);
  EXPECT_EQ(hd->config().capacity, 128u);
  EXPECT_EQ(hd->config().metric, hdc::metric::cosine);
  EXPECT_EQ(hd->config().policy, hdc::flip_policy::independent);
  EXPECT_EQ(hd->config().seed, 7u);
  EXPECT_TRUE(hd->config().slot_cache);
  EXPECT_FALSE(hd->config().lattice_decode);
}

TEST(FactoryTest, PerAlgorithmOptionsReachTheBuiltTable) {
  table_options options = fast_options();
  options.hierarchical_groups = 4;
  const auto hierarchical = make_table("hd-hierarchical", options);
  const auto* groups =
      dynamic_cast<const hierarchical_hd_table*>(hierarchical.get());
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(groups->groups(), 4u);

  const auto maglev = make_table("maglev", options);
  const auto* lookup = dynamic_cast<const maglev_table*>(maglev.get());
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->table_size(), 4099u);
  // Invalid knob combinations fail at construction.
  options.maglev_table_size = 4096;
  EXPECT_THROW((void)make_table("maglev", options), precondition_error);
}

TEST(FactoryTest, HashOptionSelectsTheHashFunction) {
  // Different hashes must give a different mapping; same hash, the same.
  table_options sip;
  sip.hash_name = "siphash24";
  auto sip_table = make_table("consistent", sip);
  auto sip_again = make_table("consistent", sip);
  auto xx_table = make_table("consistent");  // default xxhash64
  for (server_id s = 1; s <= 16; ++s) {
    sip_table->join(s * 5);
    sip_again->join(s * 5);
    xx_table->join(s * 5);
  }
  std::size_t differing = 0;
  for (request_id r = 0; r < 500; ++r) {
    EXPECT_EQ(sip_table->lookup(r), sip_again->lookup(r));
    differing += sip_table->lookup(r) != xx_table->lookup(r) ? 1 : 0;
  }
  EXPECT_GT(differing, 0u);
  table_options unknown_hash;
  unknown_hash.hash_name = "md5";
  EXPECT_THROW((void)make_table("consistent", unknown_hash),
               precondition_error);
}

TEST(TableStatsTest, EveryAlgorithmReportsLiveState) {
  for (const auto name : all_algorithms()) {
    auto table = make_table(name, fast_options());
    for (server_id s = 1; s <= 12; ++s) {
      table->join(s * 17);
    }
    const table_stats stats = table->stats();
    EXPECT_GT(stats.memory_bytes, 0u) << name;
    EXPECT_GT(stats.expected_lookup_cost, 0.0) << name;
  }
}

TEST(TableStatsTest, CostsReflectTheFigure4Ordering) {
  // The introspection must reproduce the paper's qualitative cost
  // ordering at a large pool: O(1) maglev < O(log n) consistent ring <
  // O(n) rendezvous scan < the HD row sweep on scalar hardware.
  table_options options = fast_options();
  const std::vector<std::string_view> ordering = {"maglev", "consistent",
                                                  "rendezvous", "hd"};
  double previous = 0.0;
  for (const auto name : ordering) {
    auto table = make_table(name, options);
    for (server_id s = 1; s <= 100; ++s) {
      table->join(s * 19);
    }
    const double cost = table->stats().expected_lookup_cost;
    EXPECT_GT(cost, previous) << name;
    previous = cost;
  }
}

TEST(TableStatsTest, SlotCacheFlattensTheHdCost) {
  table_options options = fast_options();
  auto scan = make_table("hd", options);
  options.hd.slot_cache = true;
  auto accel = make_table("hd", options);
  for (server_id s = 1; s <= 32; ++s) {
    scan->join(s * 23);
    accel->join(s * 23);
  }
  EXPECT_GT(scan->stats().expected_lookup_cost, 100.0);
  EXPECT_EQ(accel->stats().expected_lookup_cost, 1.0);
}

TEST(TableStatsTest, MemoryGrowsWithMembership) {
  for (const auto name : all_algorithms()) {
    auto table = make_table(name, fast_options());
    table->join(1);
    const std::size_t small = table->stats().memory_bytes;
    for (server_id s = 2; s <= 24; ++s) {
      table->join(s * 29);
    }
    EXPECT_GT(table->stats().memory_bytes, small) << name;
  }
}

}  // namespace
}  // namespace hdhash
