/// Memory layer (src/mem): hugepage arena fallback order against a
/// scripted map backend (the cpu_topology fixture pattern — no real
/// hugepage pool needed), loud failure on explicit unavailable
/// backings, stride/alignment invariants, free-list LIFO reuse,
/// word_buffer backing rules, item-memory COW un-share placement,
/// hd_table and epoch-object placement on the node-local arena, and
/// the 1–8 shard bit-identity of the sharded emulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/hd_table.hpp"
#include "emu/emulator.hpp"
#include "emu/generator.hpp"
#include "emu/sharded_emulator.hpp"
#include "emu/snapshot.hpp"
#include "exp/factory.hpp"
#include "hashing/registry.hpp"
#include "hdc/item_memory.hpp"
#include "mem/arena_options.hpp"
#include "mem/hugepage_arena.hpp"
#include "mem/word_buffer.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

/// Records every mapping attempt the arena makes, and grants only the
/// backings a test declares available — so the huge→thp→page
/// degradation chain is provable on hosts with no hugepage pool at all.
struct scripted_backend {
  std::vector<mem::mem_backing> attempts;
  std::vector<mem::mem_backing> available;

  bool is_available(mem::mem_backing kind) const {
    for (const mem::mem_backing a : available) {
      if (a == kind) {
        return true;
      }
    }
    return false;
  }

  /// The injectable hooks; the fixture must outlive the arena.
  mem::map_backend hooks() {
    return mem::map_backend{
        [this](std::size_t bytes, mem::mem_backing kind) -> void* {
          attempts.push_back(kind);
          if (!is_available(kind)) {
            return nullptr;
          }
          void* base = std::aligned_alloc(4096, bytes);
          std::memset(base, 0, bytes);
          return base;
        },
        [](void* base, std::size_t) { std::free(base); }};
  }
};

mem::arena_options scripted_options(scripted_backend& backend,
                                    mem::mem_request request) {
  mem::arena_options options;
  options.request = request;
  options.backend = backend.hooks();
  return options;
}

TEST(ArenaFallbackTest, AutoDegradesHugeThenThpThenPage) {
  {
    scripted_backend backend{{}, {mem::mem_backing::page}};
    mem::hugepage_arena arena(
        scripted_options(backend, mem::mem_request::automatic));
    ASSERT_EQ(backend.attempts.size(), 3u);
    EXPECT_EQ(backend.attempts[0], mem::mem_backing::huge);
    EXPECT_EQ(backend.attempts[1], mem::mem_backing::thp);
    EXPECT_EQ(backend.attempts[2], mem::mem_backing::page);
    EXPECT_EQ(arena.backing(), mem::mem_backing::page);
  }
  {
    scripted_backend backend{
        {}, {mem::mem_backing::thp, mem::mem_backing::page}};
    mem::hugepage_arena arena(
        scripted_options(backend, mem::mem_request::automatic));
    EXPECT_EQ(arena.backing(), mem::mem_backing::thp);
    ASSERT_EQ(backend.attempts.size(), 2u);
    EXPECT_EQ(backend.attempts.back(), mem::mem_backing::thp);
  }
  {
    scripted_backend backend{{}, {mem::mem_backing::huge}};
    mem::hugepage_arena arena(
        scripted_options(backend, mem::mem_request::automatic));
    EXPECT_EQ(arena.backing(), mem::mem_backing::huge);
    ASSERT_EQ(backend.attempts.size(), 1u);
  }
}

TEST(ArenaFallbackTest, ExplicitUnavailableBackingFailsLoudly) {
  // HDHASH_MEM=huge on a hugepage-less host must throw, never silently
  // hand back 4KB mappings.
  scripted_backend no_huge{{}, {mem::mem_backing::page}};
  try {
    mem::hugepage_arena arena(
        scripted_options(no_huge, mem::mem_request::huge));
    FAIL() << "explicit huge on a hugepage-less backend must throw";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("HDHASH_MEM=huge"),
              std::string::npos)
        << e.what();
  }
  // Explicit requests never walk the fallback chain.
  ASSERT_EQ(no_huge.attempts.size(), 1u);
  EXPECT_EQ(no_huge.attempts[0], mem::mem_backing::huge);

  scripted_backend no_thp{{}, {mem::mem_backing::page}};
  EXPECT_THROW(mem::hugepage_arena(
                   scripted_options(no_thp, mem::mem_request::thp)),
               precondition_error);
}

TEST(ArenaFallbackTest, ExplicitAvailableBackingNeverDegrades) {
  scripted_backend backend{{}, {mem::mem_backing::page}};
  mem::hugepage_arena arena(
      scripted_options(backend, mem::mem_request::page));
  EXPECT_EQ(arena.backing(), mem::mem_backing::page);
  ASSERT_EQ(backend.attempts.size(), 1u);
  EXPECT_EQ(backend.attempts[0], mem::mem_backing::page);
}

TEST(ArenaOptionsTest, RequestParsingAndPrecedence) {
  EXPECT_EQ(mem::parse_mem_request("auto"), mem::mem_request::automatic);
  EXPECT_EQ(mem::parse_mem_request("huge"), mem::mem_request::huge);
  EXPECT_EQ(mem::parse_mem_request("thp"), mem::mem_request::thp);
  EXPECT_EQ(mem::parse_mem_request("page"), mem::mem_request::page);
  EXPECT_FALSE(mem::parse_mem_request("hugepages").has_value());

  ::setenv("HDHASH_MEM", "page", 1);
  EXPECT_EQ(mem::select_mem_request(), mem::mem_request::page);
  // A program's override wins over the environment.
  mem::set_mem_request_override(mem::mem_request::thp);
  EXPECT_EQ(mem::select_mem_request(), mem::mem_request::thp);
  mem::clear_mem_request_override();
  EXPECT_EQ(mem::select_mem_request(), mem::mem_request::page);
  // A typo must fail loudly, not silently degrade to auto.
  ::setenv("HDHASH_MEM", "hugepages", 1);
  EXPECT_THROW(mem::select_mem_request(), precondition_error);
  ::unsetenv("HDHASH_MEM");
  EXPECT_EQ(mem::select_mem_request(), mem::mem_request::automatic);
}

TEST(ArenaAllocationTest, StrideRoundingAndAlignment) {
  scripted_backend backend{{}, {mem::mem_backing::page}};
  mem::hugepage_arena arena(
      scripted_options(backend, mem::mem_request::page));
  EXPECT_EQ(arena.stride_of(1), 64u);
  EXPECT_EQ(arena.stride_of(64), 64u);
  EXPECT_EQ(arena.stride_of(65), 128u);
  EXPECT_EQ(arena.stride_of(1256), 1280u);  // the d = 10,000 row
  for (const std::size_t bytes :
       {std::size_t{1}, std::size_t{63}, std::size_t{100}, std::size_t{1256},
        std::size_t{5000}}) {
    void* block = arena.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % 64, 0u)
        << "allocation of " << bytes << " not cache-line aligned";
    arena.deallocate(block, bytes);
  }
  EXPECT_THROW(arena.allocate(0), precondition_error);
}

TEST(ArenaAllocationTest, FreeListReusesLifoWithinStrideClass) {
  scripted_backend backend{{}, {mem::mem_backing::page}};
  mem::hugepage_arena arena(
      scripted_options(backend, mem::mem_request::page));
  void* a = arena.allocate(100);
  void* b = arena.allocate(100);
  EXPECT_NE(a, b);
  arena.deallocate(a, 100);
  arena.deallocate(b, 100);
  // LIFO: the most recently freed (warmest) block comes back first.
  EXPECT_EQ(arena.allocate(90), b);  // 90 and 100 share the 128 stride
  EXPECT_EQ(arena.allocate(100), a);
  // A different stride class never serves from that free list.
  void* c = arena.allocate(200);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  const mem::arena_stats stats = arena.stats();
  EXPECT_EQ(stats.allocations, 5u);
  EXPECT_EQ(stats.recycled, 2u);
}

TEST(ArenaAllocationTest, ChunksGrowAndStatsTrackResidency) {
  scripted_backend backend{{}, {mem::mem_backing::page}};
  mem::arena_options options =
      scripted_options(backend, mem::mem_request::page);
  options.chunk_bytes = 4096;
  mem::hugepage_arena arena(options);
  EXPECT_EQ(arena.stats().chunk_count, 1u);
  // 65 allocations of one 64-byte stride exceed the one-page chunk.
  std::vector<void*> blocks;
  for (int i = 0; i < 65; ++i) {
    blocks.push_back(arena.allocate(64));
  }
  const mem::arena_stats stats = arena.stats();
  EXPECT_GE(stats.chunk_count, 2u);
  EXPECT_EQ(stats.reserved_bytes, stats.chunk_count * 4096);
  EXPECT_EQ(stats.resident_pages, stats.chunk_count);  // 4KB pages
  EXPECT_EQ(stats.hugepage_bytes, 0u);  // no MAP_HUGETLB chunks
  EXPECT_EQ(stats.live_bytes, 65u * 64u);
  for (void* block : blocks) {
    arena.deallocate(block, 64);
  }
  EXPECT_EQ(arena.stats().live_bytes, 0u);
  EXPECT_EQ(arena.stats().free_blocks, 65u);
}

TEST(ArenaRegistryTest, NodeArenasAreSingletonsAndClamped) {
  const auto arena = mem::node_arena(0);
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(mem::node_arena(0), arena);
  // Out-of-range nodes clamp into the discovered topology instead of
  // creating phantom arenas.
  const auto clamped = mem::node_arena(9999);
  ASSERT_NE(clamped, nullptr);
  // The calling thread always resolves to some registered node arena.
  EXPECT_NE(mem::local_arena(), nullptr);
  const mem::arena_registry_stats stats = mem::registry_stats();
  EXPECT_GE(stats.arenas, 1u);
  EXPECT_GT(stats.reserved_bytes, 0u);
}

TEST(WordBufferTest, ArenaBlocksAreZeroedEvenWhenRecycled) {
  auto arena = std::make_shared<mem::hugepage_arena>();
  {
    mem::word_buffer dirty(8, arena);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      dirty[i] = ~std::uint64_t{0};
    }
  }  // freed block parks on the 64-byte free list, stale bits intact
  mem::word_buffer fresh(8, arena);
  EXPECT_EQ(arena->stats().recycled, 1u) << "expected the recycled block";
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], 0u) << "recycled block leaked stale bits at " << i;
  }
}

TEST(WordBufferTest, CopiesShareBackingAndRehomeMoves) {
  auto arena = std::make_shared<mem::hugepage_arena>();
  mem::word_buffer heap_buf(4);
  heap_buf[0] = 0xDEAD;
  heap_buf[3] = 0xBEEF;
  EXPECT_EQ(heap_buf.arena(), nullptr);

  mem::word_buffer copy(heap_buf);  // copy lands on the source backing
  EXPECT_EQ(copy.arena(), nullptr);
  EXPECT_EQ(copy, heap_buf);

  copy.rehome(arena);  // contents survive the move onto the arena
  EXPECT_EQ(copy.arena(), arena);
  EXPECT_EQ(copy, heap_buf);
  EXPECT_EQ(copy[0], 0xDEADu);

  const std::uint64_t* before = copy.data();
  copy.rehome(arena);  // already there: no-op, storage stable
  EXPECT_EQ(copy.data(), before);

  mem::word_buffer arena_copy(copy);  // arena source → arena copy
  EXPECT_EQ(arena_copy.arena(), arena);
  EXPECT_EQ(arena_copy, copy);

  copy.rehome(nullptr);  // and back to the heap
  EXPECT_EQ(copy.arena(), nullptr);
  EXPECT_EQ(copy, heap_buf);
}

TEST(ItemMemoryArenaTest, RowsLandOnTheMemorysArena) {
  auto arena = std::make_shared<mem::hugepage_arena>();
  hdc::item_memory memory(256, hdc::metric::inverse_hamming, arena);
  xoshiro256 rng(7);
  // Built on the heap, rehomed by insert.
  memory.insert(1, hdc::hypervector::random(256, rng));
  memory.insert(2, hdc::hypervector::random(256, rng));
  EXPECT_EQ(memory.at(1).arena(), arena);
  EXPECT_EQ(memory.at(2).arena(), arena);
}

TEST(ItemMemoryArenaTest, CowUnshareLandsInTheWritersArena) {
  auto arena = std::make_shared<mem::hugepage_arena>();
  hdc::item_memory memory(256, hdc::metric::inverse_hamming, arena);
  xoshiro256 rng(8);
  memory.insert(1, hdc::hypervector::random(256, rng));

  hdc::item_memory snapshot = memory;  // shares the row
  EXPECT_GT(memory.shared_bytes(), 0u);
  const hdc::hypervector before = snapshot.at(1);

  // Writing through the fault surface un-shares; the fresh copy must
  // live on the writer's arena and never reach the snapshot.
  auto regions = memory.storage();
  ASSERT_EQ(regions.size(), 1u);
  regions[0][0] ^= 1;
  EXPECT_EQ(memory.at(1).arena(), arena);
  EXPECT_EQ(memory.shared_bytes(), 0u);
  EXPECT_TRUE(snapshot.at(1) == before) << "write reached the snapshot";
  EXPECT_FALSE(memory.at(1) == before);
}

TEST(HdTableArenaTest, StatsReportTheBackingAndResidency) {
  const hash64& hash = hash_by_name("xxhash64");
  hd_table_config config;
  config.dimension = 1024;
  config.capacity = 128;
  hd_table table(hash, config);
  for (server_id s = 1; s <= 8; ++s) {
    table.join(s);
  }
  const table_stats stats = table.stats();
  EXPECT_NE(stats.arena_backing, "heap");
  EXPECT_GT(stats.resident_pages, 0u);
}

TEST(SnapshotArenaTest, PublisherRecyclesEpochObjectsThroughTheArena) {
  // A consistent ring's own snapshots never touch the arena, so every
  // arena allocation below is an epoch object of the publisher.
  const auto arena = mem::local_arena();
  snapshot_publisher publisher(make_table("consistent"));
  publisher.join(1);
  publisher.join(2);
  (void)publisher.current();
  const mem::arena_stats before = arena->stats();
  // Churned epochs drain back to the arena free lists; steady-state
  // publication recycles instead of growing the mapping set.
  for (int i = 0; i < 200; ++i) {
    publisher.join(100 + static_cast<server_id>(i));
    (void)publisher.current();
    publisher.leave(100 + static_cast<server_id>(i));
    (void)publisher.current();
  }
  const mem::arena_stats stats = arena->stats();
  EXPECT_GT(stats.allocations, before.allocations)
      << "epoch objects never reached the arena";
  EXPECT_GT(stats.recycled, before.recycled) << "epoch objects never recycled";
  EXPECT_EQ(stats.chunk_count, before.chunk_count)
      << "steady-state churn grew the mapping set";
}

TEST(ShardedArenaTest, MergedHistogramsBitIdenticalAcrossShardCounts) {
  workload_config workload;
  workload.initial_servers = 12;
  workload.request_count = 3000;
  workload.churn_rate = 0.02;
  workload.seed = 31;
  const generator gen(workload);
  const auto events = gen.generate();

  // Reference: a single table driven by the plain emulator.
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 128;
  auto reference_table = make_table("hd", options);
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    sharded_config config;
    config.shards = shards;
    sharded_emulator emu(
        [&](std::size_t) { return make_table("hd", options); },
        config);
    const sharded_report report = emu.run(events);
    EXPECT_EQ(report.merged.requests, expected.requests)
        << "shards=" << shards;
    EXPECT_EQ(report.merged.load, expected.load) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace hdhash
