/// Channel conformance and torture suite: every contract of the
/// lock-free spsc_ring (emu/spsc_ring.hpp), its slot recycling, and the
/// M-producer × N-shard ingest mesh.
///
/// The threaded tests here are the TSan targets for the ingest layer
/// (ctest -L channel): SPSC wraparound under concurrent push/pop,
/// close-while-full (the PR-7 deadlock regression), close-while-empty,
/// and cross-producer mesh interleavings.  Consumers that block do so
/// in `shard_consumer::pop`, on a 1×1 mesh where one ring is meant —
/// the wait the stream router's decode loops use.
#include "emu/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "emu/ingest.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

/// Blocking push of a value whose recycled slot the test does not need.
template <typename T>
void push_value(spsc_ring<T>& ring, T value) {
  ring.push(value);
}

// ---------------------------------------------------------------------
// Conformance: the channel contract every ingest pipeline relies on.

TEST(ChannelConformanceTest, FifoOrder) {
  spsc_ring<int> channel(8);
  for (int i = 0; i < 8; ++i) {
    push_value(channel, i);
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
    push_value(channel, round * 2);
    push_value(channel, round * 2 + 1);
    ASSERT_EQ(channel.try_pop(out), pop_status::ok);
    EXPECT_EQ(out, round * 2);
    ASSERT_EQ(channel.try_pop(out), pop_status::ok);
    EXPECT_EQ(out, round * 2 + 1);
  }
  EXPECT_EQ(channel.try_pop(out), pop_status::empty);
}

TEST(ChannelConformanceTest, PushAfterCloseThrowsLoudly) {
  spsc_ring<int> channel(4);
  push_value(channel, 1);
  channel.close();
  EXPECT_TRUE(channel.closed());
  EXPECT_THROW(push_value(channel, 2), channel_closed);
  int item = 3;
  EXPECT_EQ(channel.try_push(item), push_status::closed);
}

TEST(ChannelConformanceTest, PopDrainsThenReportsClosed) {
  spsc_ring<int> channel(4);
  push_value(channel, 7);
  push_value(channel, 8);
  channel.close();
  int out = -1;
  ASSERT_EQ(channel.try_pop(out), pop_status::ok);  // close still drains
  EXPECT_EQ(out, 7);
  ASSERT_EQ(channel.try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 8);
  EXPECT_EQ(channel.try_pop(out), pop_status::closed);
  EXPECT_EQ(channel.try_pop(out), pop_status::closed);  // for good
}

TEST(ChannelConformanceTest, CloseWhileEmptyWakesBlockedPop) {
  ingest_mesh<int> mesh(1, 1, 4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    int out = -1;
    const bool got = mesh.consumer(0).pop(out);  // blocks: lane is empty
    EXPECT_FALSE(got);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  mesh.lane(0, 0).close();
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
    push_value(channel, static_cast<int>(i));  // fill to the brim
  }
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      push_value(channel, 999);  // blocks: channel is full
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
  ingest_mesh<std::uint64_t> mesh(1, 1, 4);
  spsc_ring<std::uint64_t>& under_test = mesh.lane(0, 0);

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      push_value(under_test, i);
    }
    under_test.close();
  });
  shard_consumer<std::uint64_t> consumer = mesh.consumer(0);
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (consumer.pop(out)) {
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
  push_value(ring, std::make_unique<int>(42));
  std::unique_ptr<int> out;
  ASSERT_EQ(ring.try_pop(out), pop_status::ok);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

TEST(SpscRingTest, PushHandsBackTheBufferAPopDrained) {
  // Each pop leaves the consumer's previous buffer in the slot it
  // empties, and the push that next fills that slot hands it to the
  // producer: a buffer comes back one lap after the consumer popped and
  // cleared it, allocation and all.
  spsc_ring<std::vector<int>> ring(2);
  const std::size_t lap = ring.capacity();
  constexpr std::size_t kSize = 64;
  std::vector<const int*> pushed;
  std::vector<int> batch;
  std::vector<int> drained;
  for (std::size_t round = 0; round < 4 * (lap + 1); ++round) {
    batch.assign(kSize, static_cast<int>(round));
    pushed.push_back(batch.data());
    ASSERT_EQ(ring.try_push(batch), push_status::ok);
    if (round > lap) {
      EXPECT_EQ(batch.data(), pushed[round - lap - 1]) << "round " << round;
      EXPECT_GE(batch.capacity(), kSize);
      EXPECT_TRUE(batch.empty());
    }
    ASSERT_EQ(ring.try_pop(drained), pop_status::ok);
    EXPECT_EQ(drained.data(), pushed[round]);
    EXPECT_EQ(drained.front(), static_cast<int>(round));
    drained.clear();
  }
}

TEST(SpscRingTest, ItemPushedBeforeCloseIsNeverDropped) {
  // Regression for the try_pop close race: the consumer must re-check
  // emptiness after observing the closed flag, or an item published
  // between the two loads is silently lost.
  for (int round = 0; round < 200; ++round) {
    ingest_mesh<int> mesh(1, 1, 4);
    std::thread producer([&] {
      push_value(mesh.lane(0, 0), 1);
      mesh.close_row(0);
    });
    shard_consumer<int> consumer = mesh.consumer(0);
    int out = 0;
    int got = 0;
    while (consumer.pop(out)) {
      ++got;
    }
    producer.join();
    EXPECT_EQ(got, 1);
  }
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
  push_value(mesh.lane(1, 2), 42);
  int out = 0;
  EXPECT_EQ(mesh.lane(1, 2).try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(mesh.lane(0, 2).try_pop(out), pop_status::empty);
}

TEST(IngestMeshTest, ConsumerClosesOnlyWhenAllLanesClose) {
  ingest_mesh<int> mesh(2, 1, 4);
  auto consumer = mesh.consumer(0);

  push_value(mesh.lane(0, 0), 10);
  mesh.close_row(0);
  int out = 0;
  ASSERT_EQ(consumer.try_pop(out), pop_status::ok);
  EXPECT_EQ(out, 10);
  // One producer still open: the column reads empty, not closed.
  EXPECT_EQ(consumer.try_pop(out), pop_status::empty);
  push_value(mesh.lane(1, 0), 11);
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
  push_value(mesh.lane(0, 0), tagged_item{0, 0});
  push_value(mesh.lane(0, 0), tagged_item{0, 1});
  push_value(mesh.lane(1, 0), tagged_item{1, 0});

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
        push_value(mesh.lane(p, i % kShards), tagged_item{p, i});
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
          push_value(mesh.lane(p, 0), i);  // fills the lane, then blocks
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
