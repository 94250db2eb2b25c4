/// Channel conformance and torture suite: every contract of the
/// lock-free spsc_ring (emu/spsc_ring.hpp), plus the M-producer ×
/// N-shard ingest mesh and the standalone buffer_pool.
///
/// The threaded tests here are the TSan targets for the ingest layer
/// (ctest -L channel): SPSC wraparound under concurrent push/pop,
/// close-while-full (the PR-7 deadlock regression), close-while-empty,
/// cross-producer mesh interleavings, and pool recycling reuse.
#include "emu/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "emu/buffer_pool.hpp"
#include "emu/ingest.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

// ---------------------------------------------------------------------
// Conformance: the channel contract every ingest pipeline relies on.

TEST(ChannelConformanceTest, FifoOrder) {
  spsc_ring<int> channel(8);
  for (int i = 0; i < 8; ++i) {
    channel.push(int{i});
  }
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(channel.try_pop(out), pop_status::ok);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(channel.try_pop(out), pop_status::empty);
}

TEST(ChannelConformanceTest, TryPushReportsFullWithoutConsuming) {
  spsc_ring<int> channel(2);
  const std::size_t capacity = channel.capacity();
  for (std::size_t i = 0; i < capacity; ++i) {
    int item = static_cast<int>(i);
    ASSERT_EQ(channel.try_push(item), push_status::ok);
  }
  int extra = 99;
  EXPECT_EQ(channel.try_push(extra), push_status::full);
  EXPECT_EQ(extra, 99);  // untouched on full
}

TEST(ChannelConformanceTest, SingleThreadedWraparound) {
  // Many push/pop rounds through a tiny ring exercise index wraparound
  // (free-running cursors crossing the mask).
  spsc_ring<std::uint64_t> channel(2);
  std::uint64_t out = 0;
  for (std::uint64_t round = 0; round < 1000; ++round) {
    channel.push(round * 2);
    channel.push(round * 2 + 1);
    ASSERT_TRUE(channel.pop(out));
    EXPECT_EQ(out, round * 2);
    ASSERT_TRUE(channel.pop(out));
    EXPECT_EQ(out, round * 2 + 1);
  }
  EXPECT_EQ(channel.try_pop(out), pop_status::empty);
}

TEST(ChannelConformanceTest, PushAfterCloseThrowsLoudly) {
  spsc_ring<int> channel(4);
  channel.push(1);
  channel.close();
  EXPECT_TRUE(channel.closed());
  EXPECT_THROW(channel.push(2), channel_closed);
  int item = 3;
  EXPECT_EQ(channel.try_push(item), push_status::closed);
}

TEST(ChannelConformanceTest, PopDrainsThenReportsClosed) {
  spsc_ring<int> channel(4);
  channel.push(7);
  channel.push(8);
  channel.close();
  int out = -1;
  EXPECT_EQ(channel.try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(channel.pop(out));  // blocking pop still drains
  EXPECT_EQ(out, 8);
  EXPECT_EQ(channel.try_pop(out), pop_status::closed);
  EXPECT_FALSE(channel.pop(out));
}

TEST(ChannelConformanceTest, CloseWhileEmptyWakesBlockedPop) {
  spsc_ring<int> channel(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    int out = -1;
    const bool got = channel.pop(out);  // blocks: channel is empty
    EXPECT_FALSE(got);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  channel.close();
  consumer.join();
  EXPECT_TRUE(popped.load());
}

// The PR-7 deadlock regression: a push already *blocked* on a full
// channel must wake and throw channel_closed when close() arrives —
// the old mutex channel's push waited on a condition close() never
// signalled and hung forever.
TEST(ChannelConformanceTest, CloseWhileFullWakesBlockedPush) {
  spsc_ring<int> channel(1);
  const std::size_t capacity = channel.capacity();
  for (std::size_t i = 0; i < capacity; ++i) {
    channel.push(static_cast<int>(i));  // fill to the brim
  }
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      channel.push(999);  // blocks: channel is full
      ADD_FAILURE() << "push into a closed channel returned";
    } catch (const channel_closed&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(threw.load());  // still blocked, not spuriously failed
  channel.close();
  producer.join();
  EXPECT_TRUE(threw.load());
}

TEST(ChannelConformanceTest, SpscTortureKeepsOrderAndLosesNothing) {
  // One producer races one consumer through a tiny ring long enough to
  // wrap the cursors thousands of times.  FIFO means the consumer must
  // see exactly 0,1,2,...,N-1.
  constexpr std::uint64_t kItems = 200'000;
  spsc_ring<std::uint64_t> under_test(4);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      under_test.push(std::uint64_t{i});
    }
    under_test.close();
  });
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (under_test.pop(out)) {
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// ---------------------------------------------------------------------
// spsc_ring specifics.

TEST(SpscRingTest, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(spsc_ring<int>(1).capacity(), 1u);
  EXPECT_EQ(spsc_ring<int>(2).capacity(), 2u);
  EXPECT_EQ(spsc_ring<int>(3).capacity(), 4u);
  EXPECT_EQ(spsc_ring<int>(5).capacity(), 8u);
  EXPECT_EQ(spsc_ring<int>(64).capacity(), 64u);
}

TEST(SpscRingTest, ZeroCapacityThrows) {
  EXPECT_THROW(spsc_ring<int>(0), precondition_error);
}

TEST(SpscRingTest, MovesItemsThrough) {
  // Move-only payloads prove the ring never copies.
  spsc_ring<std::unique_ptr<int>> ring(2);
  ring.push(std::make_unique<int>(42));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(SpscRingTest, ItemPushedBeforeCloseIsNeverDropped) {
  // Regression for the try_pop close race: the consumer must re-check
  // emptiness after observing the closed flag, or an item published
  // between the two loads is silently lost.
  for (int round = 0; round < 200; ++round) {
    spsc_ring<int> ring(4);
    std::thread producer([&] {
      ring.push(1);
      ring.close();
    });
    int out = 0;
    int got = 0;
    while (ring.pop(out)) {
      ++got;
    }
    producer.join();
    EXPECT_EQ(got, 1);
  }
}

// ---------------------------------------------------------------------
// buffer_pool: the recycling round-trip, standalone.

TEST(BufferPoolTest, TakeFromEmptyPoolFails) {
  buffer_pool<std::vector<int>> pool;
  std::vector<int> buffer;
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.take(buffer));
}

TEST(BufferPoolTest, RecycledBufferKeepsItsAllocation) {
  buffer_pool<std::vector<int>> pool;
  std::vector<int> buffer;
  buffer.reserve(1024);
  const int* storage = buffer.data();
  pool.recycle(std::move(buffer));
  EXPECT_EQ(pool.size(), 1u);

  std::vector<int> reused;
  ASSERT_TRUE(pool.take(reused));
  EXPECT_EQ(reused.data(), storage);  // same allocation came back
  EXPECT_EQ(reused.capacity(), 1024u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(BufferPoolTest, RecycleFromAnotherThreadIsImmediatelyTakeable) {
  buffer_pool<std::vector<int>> pool;
  std::thread consumer([&] { pool.recycle(std::vector<int>(8, 3)); });
  consumer.join();
  std::vector<int> batch;
  ASSERT_TRUE(pool.take(batch));
  EXPECT_EQ(batch.size(), 8u);
}

TEST(BufferPoolTest, LifoReuseUnderManyThreads) {
  buffer_pool<std::vector<int>> pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5'000;
  std::vector<std::thread> threads;
  std::atomic<int> takes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<int> buffer;
        if (pool.take(buffer)) {
          takes.fetch_add(1, std::memory_order_relaxed);
        }
        buffer.clear();
        pool.recycle(std::move(buffer));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Every recycle stays in the pool, so at most kThreads buffers exist.
  EXPECT_LE(pool.size(), static_cast<std::size_t>(kThreads));
  EXPECT_GT(takes.load(), 0);
}

// ---------------------------------------------------------------------
// The M×N ingest mesh.

struct tagged_item {
  std::size_t producer = 0;
  std::uint64_t sequence = 0;
};

TEST(IngestMeshTest, LaneIndexingIsProducerMajor) {
  ingest_mesh<int> mesh(2, 3, 4);
  EXPECT_EQ(mesh.producers(), 2u);
  EXPECT_EQ(mesh.shards(), 3u);
  mesh.lane(1, 2).push(42);
  int out = 0;
  EXPECT_EQ(mesh.lane(1, 2).try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(mesh.lane(0, 2).try_pop(out), pop_status::empty);
}

TEST(IngestMeshTest, ConsumerClosesOnlyWhenAllLanesClose) {
  ingest_mesh<int> mesh(2, 1, 4);
  auto consumer = mesh.consumer(0);

  mesh.lane(0, 0).push(10);
  mesh.close_row(0);
  int out = 0;
  ASSERT_EQ(consumer.try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 10);
  // One producer still open: the column reads empty, not closed.
  EXPECT_EQ(consumer.try_pop(out), pop_status::empty);
  mesh.lane(1, 0).push(11);
  mesh.close_row(1);
  ASSERT_EQ(consumer.try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 11);
  EXPECT_EQ(consumer.try_pop(out), pop_status::closed);
}

TEST(IngestMeshTest, RoundRobinScanDoesNotStarveLanes) {
  // Producer 0 keeps its lane full; producer 1's items must still get
  // through within a bounded number of pops.
  ingest_mesh<tagged_item> mesh(2, 1, 4);
  auto consumer = mesh.consumer(0);
  mesh.lane(0, 0).push({0, 0});
  mesh.lane(0, 0).push({0, 1});
  mesh.lane(1, 0).push({1, 0});

  bool saw_producer1 = false;
  tagged_item out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(consumer.try_pop(out), pop_status::ok);
    if (out.producer == 1) {
      saw_producer1 = true;
    }
  }
  EXPECT_TRUE(saw_producer1);
}

TEST(IngestMeshTortureTest, MxNMeshDeliversEverythingInPerProducerOrder) {
  // M producer threads each stream kItems tagged items round-robin at N
  // consumer threads.  Every consumer checks per-producer FIFO (the
  // mesh's ordering guarantee) and the totals prove nothing was lost
  // or duplicated.
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kItems = 20'000;
  ingest_mesh<tagged_item> mesh(kProducers, kShards, 4);

  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<int> order_faults{0};
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&mesh, &delivered, &order_faults, s] {
      auto consumer = mesh.consumer(s);
      // Items from one producer arrive in strictly increasing sequence
      // (each producer round-robins shards, so shard s sees every
      // kShards-th item of that producer's stream).
      std::vector<std::uint64_t> last_seen(kProducers, 0);
      std::vector<bool> any_seen(kProducers, false);
      tagged_item item;
      while (consumer.pop(item)) {
        if (any_seen[item.producer] &&
            item.sequence <= last_seen[item.producer]) {
          order_faults.fetch_add(1, std::memory_order_relaxed);
        }
        last_seen[item.producer] = item.sequence;
        any_seen[item.producer] = true;
        delivered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&mesh, p] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        mesh.lane(p, i % kShards).push({p, i});
      }
      mesh.close_row(p);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(delivered.load(), kProducers * kItems);
  EXPECT_EQ(order_faults.load(), 0);
}

TEST(IngestMeshTortureTest, MeshCloseUnblocksStalledProducers) {
  // Producers blocked on full lanes (no consumer running) must all
  // wake and fail loudly when the mesh force-closes — the stop path.
  constexpr std::size_t kProducers = 2;
  ingest_mesh<int> mesh(kProducers, 1, 1);
  std::atomic<int> threw{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mesh, &threw, p] {
      try {
        for (int i = 0;; ++i) {
          mesh.lane(p, 0).push(int{i});  // fills the lane, then blocks
        }
      } catch (const channel_closed&) {
        threw.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mesh.close();
  for (auto& thread : producers) {
    thread.join();
  }
  EXPECT_EQ(threw.load(), static_cast<int>(kProducers));
}

}  // namespace
}  // namespace hdhash
