/// Epoch-published table snapshots (emu/snapshot.hpp) and the sharded
/// emulator that shares them: copy-on-write immutability,
/// hd-hierarchical's delta publishing (an epoch re-freezes only the
/// groups an event touched), incremental slot-cache maintenance versus
/// cold decoding, publisher epoch accounting, determinism of heavy churn
/// interleaved with lookups across 1/2/4/8 shards, and the ~one-replica
/// memory claim.
/// These tests exercise real worker threads sharing one snapshot and
/// are a primary TSan target (-DHDHASH_SANITIZE=thread) alongside
/// emu_sharded_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "core/hd_table.hpp"
#include "core/hierarchical.hpp"
#include "emu/emulator.hpp"
#include "emu/generator.hpp"
#include "emu/sharded_emulator.hpp"
#include "emu/snapshot.hpp"
#include "exp/factory.hpp"
#include "exp/sharded.hpp"
#include "fault/injector.hpp"
#include "hashing/registry.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 128;
  return options;
}

/// Four small groups; the slot cache, when on, is the per-group
/// bookkeeping a snapshot would otherwise copy for every group.
hierarchical_config small_hierarchy(bool slot_cache) {
  hierarchical_config config;
  config.groups = 4;
  config.shard.dimension = 1024;
  config.shard.capacity = 64;
  config.shard.slot_cache = slot_cache;
  config.router = config.shard;
  config.router.capacity = 16;
  return config;
}

/// Bytes a table keeps resident beyond what it shares with other owners.
std::size_t marginal(const dynamic_table& table) {
  const table_stats stats = table.stats();
  return stats.memory_bytes - stats.shared_bytes;
}

workload_config heavy_churn_workload() {
  workload_config config;
  config.initial_servers = 24;
  config.request_count = 6000;
  config.churn_rate = 0.05;  // heavy: a membership event every ~20 slots
  config.seed = 23;
  return config;
}

TEST(TableSnapshotTest, EveryAlgorithmSnapshotsItsCurrentMapping) {
  for (const auto algorithm : all_algorithms()) {
    auto table = make_table(algorithm, fast_options());
    for (server_id s = 1; s <= 10; ++s) {
      table->join(s * 101);
    }
    const auto snap = table->snapshot();
    for (request_id r = 0; r < 300; ++r) {
      EXPECT_EQ(snap->lookup(r), table->lookup(r)) << algorithm;
    }
  }
}

TEST(TableSnapshotTest, SnapshotSurvivesChurnOnTheSource) {
  for (const auto algorithm : all_algorithms()) {
    auto table = make_table(algorithm, fast_options());
    for (server_id s = 1; s <= 10; ++s) {
      table->join(s * 101);
    }
    const auto snap = table->snapshot();
    std::vector<server_id> before(400);
    for (request_id r = 0; r < 400; ++r) {
      before[r] = snap->lookup(r);
    }
    // Churn the source: the published snapshot must keep answering with
    // the membership it captured.
    table->leave(101);
    table->leave(505);
    table->join(99'991);
    for (request_id r = 0; r < 400; ++r) {
      EXPECT_EQ(snap->lookup(r), before[r]) << algorithm;
    }
  }
}

TEST(TableSnapshotTest, FaultInjectionNeverReachesASnapshot) {
  // hd shares item-memory rows with its snapshots copy-on-write; the
  // fault surface must un-share before corrupting, or a published epoch
  // would silently change under the workers.
  hd_table_config config;
  config.dimension = 1024;
  config.capacity = 128;
  hd_table table(hash_by_name("xxhash64"), config);
  for (server_id s = 1; s <= 8; ++s) {
    table.join(s * 777);
  }
  const auto snap = table.snapshot();
  std::vector<server_id> before(300);
  for (request_id r = 0; r < 300; ++r) {
    before[r] = snap->lookup(r);
  }
  // Zero every row of the source through its fault surface.
  for (memory_region& region : table.fault_regions()) {
    for (std::byte& b : region.bytes) {
      b = std::byte{0};
    }
  }
  for (request_id r = 0; r < 300; ++r) {
    EXPECT_EQ(snap->lookup(r), before[r]) << "request " << r;
  }
  // And the source really is corrupted (all rows equal → smallest row
  // key wins everywhere), so the COW break happened on the right side.
  std::size_t diffs = 0;
  for (request_id r = 0; r < 300; ++r) {
    diffs += table.lookup(r) != before[r] ? 1 : 0;
  }
  EXPECT_GT(diffs, 0u);
}

TEST(TableSnapshotTest, LiveFaultsAfterASnapshotLeaveItsWalkAlone) {
  // The snapshot copies the rows' walk index and shares their words.
  // Corrupting the live table afterwards must move neither the
  // snapshot's batch answers nor its index; the live table's own walk
  // must follow its un-shared, corrupted rows to the cold decode.
  for (const bool slot_cache : {false, true}) {
    hd_table_config config;
    config.dimension = 1024;
    config.capacity = 128;
    config.slot_cache = slot_cache;
    hd_table table(hash_by_name("xxhash64"), config);
    for (server_id s = 1; s <= 24; ++s) {
      table.join(s * 777);
    }
    std::vector<request_id> block(600);
    std::iota(block.begin(), block.end(), request_id{0});
    const auto snap = table.snapshot();
    std::vector<server_id> before(block.size());
    snap->lookup_batch(block, before);

    bit_flip_injector injector(21);
    injector.inject_random(table, 3000);  // ~15 lattice steps a row
    std::vector<server_id> after(block.size());
    std::vector<server_id> live(block.size());
    snap->lookup_batch(block, after);
    table.lookup_batch(block, live);
    EXPECT_EQ(after, before) << "slot_cache=" << slot_cache;
    std::size_t moved = 0;
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(live[i], table.lookup_detailed(block[i]).key)
          << "slot_cache=" << slot_cache << " request " << i;
      moved += live[i] != before[i] ? 1 : 0;
    }
    EXPECT_GT(moved, 0u) << "slot_cache=" << slot_cache;
  }
}

TEST(TableSnapshotTest, ConcurrentReadersOfAFrozenCopyNeverWrite) {
  // Every read of a frozen copy decodes when its slot cache is off, or
  // when it was frozen with the faulted table's slots unresolved
  // (snapshot() would warm them first).  Those reads walk the decode
  // index freeze() rebuilt; readers that rebuilt it themselves would
  // race, and under TSan this test fails.
  for (const bool slot_cache : {false, true}) {
    hd_table_config config;
    config.dimension = 1024;
    config.capacity = 128;
    config.slot_cache = slot_cache;
    hd_table table(hash_by_name("xxhash64"), config);
    for (server_id s = 1; s <= 24; ++s) {
      table.join(s * 777);
    }
    bit_flip_injector injector(5);
    injector.inject_random(table, 400);
    const auto frozen = std::make_shared<hd_table>(table);
    frozen->freeze();
    std::vector<request_id> block(512);
    std::iota(block.begin(), block.end(), request_id{0});
    std::vector<server_id> reference(block.size());
    table.lookup_batch(block, reference);

    constexpr std::size_t kReaders = 4;
    std::vector<std::vector<server_id>> answers(
        kReaders, std::vector<server_id>(block.size()));
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int round = 0; round < 4; ++round) {
          frozen->lookup_batch(block, answers[t]);
        }
      });
    }
    for (std::thread& reader : readers) {
      reader.join();
    }
    for (std::size_t t = 0; t < kReaders; ++t) {
      EXPECT_EQ(answers[t], reference)
          << "slot_cache=" << slot_cache << " reader " << t;
    }
  }
}

TEST(TableSnapshotTest, HierarchicalFaultsReachTheNextSnapshotOnly) {
  // hd-hierarchical keeps each group's last published frozen copy and
  // fault_regions() must drop them all: corruption after a publication
  // never changes that epoch, and it does show in the next one — reusing
  // a stale cached group would hide the faults from a shadow oracle.
  for (const bool slot_cache : {false, true}) {
    hierarchical_hd_table table(hash_by_name("xxhash64"),
                                small_hierarchy(slot_cache));
    for (server_id s = 1; s <= 24; ++s) {
      table.join(s * 777);
    }
    const auto s1 = table.snapshot();
    std::vector<server_id> before(300);
    for (request_id r = 0; r < 300; ++r) {
      before[r] = s1->lookup(r);
    }
    for (memory_region& region : table.fault_regions()) {
      for (std::byte& b : region.bytes) {
        b = std::byte{0};
      }
    }
    const auto s2 = table.snapshot();
    std::size_t diffs = 0;
    for (request_id r = 0; r < 300; ++r) {
      EXPECT_EQ(s1->lookup(r), before[r])
          << "slot_cache=" << slot_cache << " request " << r;
      EXPECT_EQ(s2->lookup(r), table.lookup(r))
          << "slot_cache=" << slot_cache << " request " << r;
      diffs += s2->lookup(r) != before[r] ? 1 : 0;
    }
    EXPECT_GT(diffs, 0u) << "slot_cache=" << slot_cache;
  }
}

TEST(TableSnapshotTest, HierarchicalSnapshotReFreezesOnlyTheTouchedGroup) {
  // Delta publishing: a join touches one group, so the next epoch
  // re-freezes that group alone and shares every other table with the
  // previous epoch.  A regression to full copies fails the upper bound.
  const hierarchical_config config = small_hierarchy(true);
  hierarchical_hd_table table(hash_by_name("xxhash64"), config);
  std::vector<server_id> members;
  for (server_id s = 1; s <= 24; ++s) {
    table.join(s * 101);
    members.push_back(s * 101);
  }
  // One group's bookkeeping: a lone table of the shard shape shares its
  // rows' words with its snapshot, leaving the resolved slot array and
  // an entry per row.
  const auto group_bytes_of = [&config](std::size_t rows) {
    hd_table lone(hash_by_name("xxhash64"), config.shard);
    for (server_id s = 1; s <= rows; ++s) {
      lone.join(s);
    }
    return marginal(*lone.snapshot());
  };
  const std::size_t group_bytes = group_bytes_of(1);
  ASSERT_GT(group_bytes, 0u);

  const auto s1 = table.snapshot();
  // The first publication freezes every table.
  EXPECT_GE(marginal(*s1), config.groups * group_bytes);
  // An epoch no event touched re-freezes nothing: it is just the shell.
  const std::size_t shell = marginal(*table.snapshot());
  EXPECT_LT(shell, group_bytes);

  std::vector<server_id> before(600);
  for (request_id r = 0; r < 600; ++r) {
    before[r] = s1->lookup(r);
  }
  // Join into a group that is already routable, so the router is shared.
  server_id joiner = 10'000;
  while (std::none_of(members.begin(), members.end(), [&](server_id m) {
    return table.shard_of(m) == table.shard_of(joiner);
  })) {
    ++joiner;
  }
  const std::size_t touched_rows =
      1 + static_cast<std::size_t>(
              std::count_if(members.begin(), members.end(), [&](server_id m) {
                return table.shard_of(m) == table.shard_of(joiner);
              }));
  table.join(joiner);
  const auto s2 = table.snapshot();
  EXPECT_GE(marginal(*s2), group_bytes);
  EXPECT_LE(marginal(*s2), group_bytes_of(touched_rows) + shell);

  // S1 still answers with the membership it captured, S2 with the new.
  EXPECT_FALSE(s1->contains(joiner));
  EXPECT_TRUE(s2->contains(joiner));
  std::size_t moved = 0;
  for (request_id r = 0; r < 600; ++r) {
    EXPECT_EQ(s1->lookup(r), before[r]) << "request " << r;
    EXPECT_EQ(s2->lookup(r), table.lookup(r)) << "request " << r;
    moved += s2->lookup(r) != before[r] ? 1 : 0;
  }
  EXPECT_GT(moved, 0u);
}

TEST(TableSnapshotTest, SharedBytesAccountTheCowRows) {
  hd_table_config config;
  config.dimension = 1024;
  config.capacity = 128;
  hd_table table(hash_by_name("xxhash64"), config);
  for (server_id s = 1; s <= 8; ++s) {
    table.join(s * 31);
  }
  const std::size_t row_bytes = 8 * (1024 / 64) * sizeof(std::uint64_t);
  EXPECT_EQ(table.stats().shared_bytes, 0u);
  const auto snap = table.snapshot();
  // All 8 rows are now jointly held by the snapshot.
  EXPECT_EQ(table.stats().shared_bytes, row_bytes);
  EXPECT_EQ(snap->stats().shared_bytes, row_bytes);
  // The snapshot's marginal residency is bookkeeping, not rows: with
  // the slot cache off, its own row list and decode index.
  EXPECT_LT(marginal(*snap), row_bytes);
  EXPECT_GT(marginal(*snap), 0u);
}

TEST(TableSnapshotTest, CloneOfASnapshotIsIndependentlyMutable) {
  // clone() promises an independently mutable copy with identical
  // mapping; a clone taken *from a frozen snapshot* must therefore
  // thaw — its memoized slot cache has to track its own membership
  // changes, not stay pinned to the snapshot's epoch — and an
  // hd-hierarchical clone must own its groups, not write through the
  // frozen ones the snapshot shares with other epochs.
  for (const auto algorithm : {"hd", "hd-hierarchical"}) {
    table_options cached_options = fast_options();
    cached_options.hd.slot_cache = true;
    auto table = make_table(algorithm, cached_options);
    for (server_id s = 1; s <= 10; ++s) {
      table->join(s * 11);
    }
    const auto snap = table->snapshot();
    std::vector<server_id> published(500);
    for (request_id r = 0; r < 500; ++r) {
      published[r] = snap->lookup(r);
    }
    const auto thawed = snap->clone();
    thawed->leave(11);
    thawed->join(4242);
    auto twin = make_table(algorithm, fast_options());  // slot cache off
    for (server_id s = 2; s <= 10; ++s) {
      twin->join(s * 11);
    }
    twin->join(4242);
    for (request_id r = 0; r < 500; ++r) {
      ASSERT_EQ(thawed->lookup(r), twin->lookup(r))
          << algorithm << " request " << r;
      ASSERT_NE(thawed->lookup(r), 11u) << algorithm;
      ASSERT_EQ(snap->lookup(r), published[r])
          << algorithm << " request " << r;
    }
  }
}

/// Flips the same seeded bits in both tables' rows (equal histories
/// store rows in the same order), through the fault surface.
void corrupt_identically(hd_table& a, hd_table& b, std::uint64_t seed) {
  const auto rows_a = a.fault_regions();
  const auto rows_b = b.fault_regions();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  xoshiro256 rng(seed);
  for (std::size_t r = 0; r < rows_a.size(); ++r) {
    // Up to two lattice steps of flips: enough to move rows across
    // lattice levels, so incumbents carry distances off the circle's
    // profile.
    const std::size_t bits = rows_a[r].bytes.size() * 8;
    const std::uint64_t flips = uniform_below(rng, 17);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t bit = uniform_below(rng, bits);
      const auto mask = static_cast<std::byte>(1u << (bit % 8));
      rows_a[r].bytes[bit / 8] ^= mask;
      rows_b[r].bytes[bit / 8] ^= mask;
    }
  }
}

/// The incremental maintenance contract under one configuration: after
/// any join/leave history, a cached table answers bit-identically to an
/// uncached twin.  With `faults`, every row is corrupted after the join
/// burst, so cached incumbents carry measured distances while the rows
/// that join later are fresh circle vectors.
void expect_maintained_cache_equals_cold_decode(hd_table_config cached_config,
                                                bool faults) {
  cached_config.slot_cache = true;
  hd_table_config plain_config = cached_config;
  plain_config.slot_cache = false;
  hd_table cached(hash_by_name("xxhash64"), cached_config);
  hd_table plain(hash_by_name("xxhash64"), plain_config);

  std::vector<request_id> block(600);
  std::iota(block.begin(), block.end(), request_id{0});
  auto check = [&](const char* when) {
    // The batches run on copies, which carry the cache exactly as the
    // event left it (maintained entries beside invalidated slots): the
    // live copy meets that mix, the published one answers every request
    // from the warmed cache, and `cached` itself is left untouched so
    // its scalar lookups below still take lookup()'s own re-decode.
    std::vector<server_id> expected(block.size());
    std::vector<server_id> live(block.size());
    std::vector<server_id> published(block.size());
    plain.lookup_batch(block, expected);
    hd_table live_copy(cached);
    live_copy.lookup_batch(block, live);
    hd_table(cached).snapshot()->lookup_batch(block, published);
    ASSERT_EQ(live, expected) << when;
    ASSERT_EQ(published, expected) << when;
    for (request_id r = 0; r < 600; ++r) {
      ASSERT_EQ(cached.lookup(r), plain.lookup(r)) << when << " r=" << r;
    }
  };

  for (server_id s = 1; s <= 20; ++s) {
    cached.join(s * 17);
    plain.join(s * 17);
  }
  cached.warm_slot_cache();
  check("after join burst");
  if (faults) {
    corrupt_identically(cached, plain, 5);
    cached.warm_slot_cache();
    check("after corruption");
  }

  // Interleave joins and leaves with lookups so every maintenance path
  // runs against a warm cache: join-beats-incumbent, leave-invalidation
  // and lazy re-decode.  The small ids win key ties against incumbents
  // at the same distance, so an off-by-one in a newcomer's distance
  // shows wherever lattice decoding is off.
  for (int round = 0; round < 6; ++round) {
    const server_id leaver = (round * 3 + 1) * 17;
    cached.leave(leaver);
    plain.leave(leaver);
    check("after leave");
    const server_id joiner = 10'000 + round;
    cached.join(joiner);
    plain.join(joiner);
    check("after join");
    const server_id small_joiner = 1 + round;
    cached.join(small_joiner);
    plain.join(small_joiner);
    check("after small-id join");
  }

  // Weighted joins exercise multi-row maintenance (replica rows).
  cached.join(77'777, 3.0);
  plain.join(77'777, 3.0);
  check("after weighted join");
}

TEST(SlotCacheMaintenanceTest, MaintainedCacheEqualsColdDecodeUnderChurn) {
  // fresh_bits prices a joining row by circle geometry, independent by
  // popcount; both must keep every entry equal to a cold decode — on an
  // even circle and an odd one (the doubled construction of the paper's
  // footnote 1), with lattice decoding on and off (off, every bit of a
  // distance decides), with and without corrupted incumbents.
  for (const auto policy :
       {hdc::flip_policy::fresh_bits, hdc::flip_policy::independent}) {
    for (const std::size_t capacity : {std::size_t{128}, std::size_t{127}}) {
      for (const bool lattice : {true, false}) {
        for (const bool faults : {false, true}) {
          hd_table_config config;
          config.dimension = 1024;
          config.capacity = capacity;
          config.policy = policy;
          config.lattice_decode = lattice;
          SCOPED_TRACE(::testing::Message()
                       << (policy == hdc::flip_policy::fresh_bits
                               ? "fresh_bits"
                               : "independent")
                       << " n=" << capacity << " lattice=" << lattice
                       << " faults=" << faults);
          expect_maintained_cache_equals_cold_decode(config, faults);
          if (HasFatalFailure()) {
            return;
          }
        }
      }
    }
  }
}

TEST(SnapshotPublisherTest, PublishesLazilyOncePerObservedEpoch) {
  auto owned = make_table("hd", fast_options());
  snapshot_publisher publisher(std::move(owned));
  publisher.join(1);
  publisher.join(2);
  publisher.join(3);
  EXPECT_EQ(publisher.epoch(), 3u);
  EXPECT_EQ(publisher.published_epochs(), 0u);  // nothing observed yet

  const auto first = publisher.current();
  EXPECT_EQ(first->epoch(), 3u);
  EXPECT_EQ(publisher.published_epochs(), 1u);
  // Stable within an epoch: same snapshot object, no re-publication.
  EXPECT_EQ(publisher.current(), first);
  EXPECT_EQ(publisher.published_epochs(), 1u);

  // Consecutive membership events collapse into one publication.
  publisher.leave(1);
  publisher.join(4);
  EXPECT_EQ(publisher.epoch(), 5u);
  const auto second = publisher.current();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->epoch(), 5u);
  EXPECT_EQ(publisher.published_epochs(), 2u);

  // The first epoch still answers with its captured membership.
  EXPECT_TRUE(first->table().contains(1));
  EXPECT_FALSE(second->table().contains(1));
  EXPECT_FALSE(first->table().contains(4));
  EXPECT_TRUE(second->table().contains(4));
}

TEST(ShardedSnapshotModeTest, HeavyChurnHistogramMatchesReferenceAtEveryShardCount) {
  // The acceptance bar: heavy churn interleaved with lookups, 1/2/4/8
  // shards — merged load histogram bit-identical to the
  // single-table reference (which runs with the slot cache *off*, so
  // this simultaneously certifies the maintained cache).
  const generator gen(heavy_churn_workload());
  const auto events = gen.generate();
  for (const auto algorithm : {"hd", "hd-hierarchical"}) {
    shard_sweep_config config;
    config.shard_counts = {1, 2, 4, 8};
    config.servers = heavy_churn_workload().initial_servers;
    config.requests = heavy_churn_workload().request_count;
    config.churn_rate = heavy_churn_workload().churn_rate;
    config.seed = heavy_churn_workload().seed;
    const auto series = run_shard_sweep(algorithm, config, fast_options());
    ASSERT_EQ(series.size(), 4u);
    for (const shard_sweep_point& point : series) {
      EXPECT_TRUE(point.matches_reference)
          << algorithm << " shards=" << point.shards;
      EXPECT_EQ(point.merged.requests, heavy_churn_workload().request_count)
          << algorithm;
      EXPECT_GT(point.snapshots_published, 0u) << algorithm;
      // Epochs that no request observed are never published.
      EXPECT_LE(point.snapshots_published,
                point.merged.joins + point.merged.leaves + 1)
          << algorithm;
    }
  }
}

TEST(ShardedSnapshotModeTest, TableMemoryIsOneReplicaNotN) {
  const generator gen(heavy_churn_workload());
  const auto events = gen.generate();
  // Same construction everywhere (slot cache on), so the byte counts
  // differ only by what the snapshot pipeline adds to one table.
  table_options options = fast_options();
  options.hd.slot_cache = true;

  // One replica: a plain table after the same stream.
  auto replica = make_table("hd-hierarchical", options);
  emulator plain(*replica, 256);
  plain.run(events);
  const std::size_t one_replica = replica->stats().memory_bytes;

  auto run_sharded = [&](std::size_t shards) {
    sharded_config config;
    config.shards = shards;
    sharded_emulator emu(
        [&options](std::size_t) {
          return make_table("hd-hierarchical", options);
        },
        config);
    return emu.run(events).table_memory_bytes;
  };
  const std::size_t snapshot_1 = run_sharded(1);
  const std::size_t snapshot_8 = run_sharded(8);

  // Snapshot memory is independent of the shard count (one producer
  // table + the live epoch's bookkeeping)...
  EXPECT_EQ(snapshot_8, snapshot_1);
  // ...and stays within one replica plus epsilon (the resolved slot
  // arrays and member maps), far below an N-fold replication.
  EXPECT_LT(snapshot_8, 3 * one_replica);
}

TEST(ShardedSnapshotModeTest, PerShardStatsCarryNoMembershipEvents) {
  const generator gen(heavy_churn_workload());
  const auto events = gen.generate();
  sharded_config config;
  config.shards = 4;
  sharded_emulator emu(
      [](std::size_t) { return make_table("consistent", fast_options()); },
      config);
  const sharded_report report = emu.run(events);
  EXPECT_GT(report.merged.joins, 0u);
  std::size_t shard_requests = 0;
  for (const run_stats& shard : report.per_shard) {
    // Membership is applied once by the producer, not per shard.
    EXPECT_EQ(shard.joins, 0u);
    EXPECT_EQ(shard.leaves, 0u);
    shard_requests += shard.requests;
  }
  EXPECT_EQ(shard_requests, report.merged.requests);
  // The producer table holds the end-of-run pool, visible via table()
  // (merged.joins includes the initial join burst).
  EXPECT_EQ(emu.table(0).server_count(),
            report.merged.joins - report.merged.leaves);
}

}  // namespace
}  // namespace hdhash
