#include "emu/emulator.hpp"

#include <gtest/gtest.h>

#include "emu/generator.hpp"
#include "exp/factory.hpp"
#include "fault/injector.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 128;
  return options;
}

workload_config small_workload() {
  workload_config config;
  config.initial_servers = 8;
  config.request_count = 1000;
  config.seed = 3;
  return config;
}

TEST(EmulatorTest, CountsEventKinds) {
  auto table = make_table("consistent", fast_options());
  const generator gen(small_workload());
  emulator emu(*table, 64);
  const auto stats = emu.run(gen.generate());
  EXPECT_EQ(stats.joins, 8u);
  EXPECT_EQ(stats.leaves, 0u);
  EXPECT_EQ(stats.requests, 1000u);
  EXPECT_EQ(table->server_count(), 8u);
}

TEST(EmulatorTest, LoadAccountingSumsToRequests) {
  auto table = make_table("rendezvous", fast_options());
  const generator gen(small_workload());
  emulator emu(*table);
  const auto stats = emu.run(gen.generate());
  std::uint64_t total = 0;
  for (const auto& [server, count] : stats.load) {
    total += count;
  }
  EXPECT_EQ(total, stats.requests);
}

TEST(EmulatorTest, TimingAccumulatesWhenEnabled) {
  auto table = make_table("modular", fast_options());
  const generator gen(small_workload());
  emulator emu(*table);
  const auto stats = emu.run(gen.generate());
  EXPECT_GT(stats.total_request_ns, 0.0);
  EXPECT_GT(stats.avg_request_ns(), 0.0);
}

TEST(EmulatorTest, TimingZeroWhenDisabled) {
  auto table = make_table("modular", fast_options());
  const generator gen(small_workload());
  emulator emu(*table);
  emu.set_timing(false);
  const auto stats = emu.run(gen.generate());
  EXPECT_EQ(stats.total_request_ns, 0.0);
}

TEST(EmulatorTest, ShadowSeesNoMismatchWithoutFaults) {
  for (const auto algorithm : all_algorithms()) {
    auto table = make_table(algorithm, fast_options());
    workload_config config = small_workload();
    config.churn_rate = 0.02;  // exercise join/leave mirroring too
    const generator gen(config);
    const auto events = gen.generate();
    // Populate nothing yet: shadow starts empty alongside the table.
    emulator emu(*table, 32);
    emu.enable_shadow();
    const auto stats = emu.run(events);
    EXPECT_EQ(stats.mismatches, 0u) << algorithm;
    EXPECT_EQ(stats.invalid_assignments, 0u) << algorithm;
  }
}

TEST(EmulatorTest, ShadowDetectsInjectedCorruption) {
  auto table = make_table("consistent", fast_options());
  // Populate first so the corruption has a surface to hit.
  const generator gen(small_workload());
  for (const auto id : gen.initial_server_ids()) {
    table->join(id);
  }
  emulator emu(*table);
  emu.enable_shadow();  // pristine snapshot

  bit_flip_injector injector(123);
  injector.inject_random(*table, 24);  // heavy corruption of the ring

  workload_config requests_only = small_workload();
  requests_only.initial_servers = 0;
  requests_only.request_count = 4000;
  const generator req_gen(requests_only);
  const auto stats = emu.run(req_gen.generate());
  EXPECT_GT(stats.mismatches, 0u);
  EXPECT_GE(stats.mismatches, stats.invalid_assignments);
}

TEST(EmulatorTest, ChurnEventsReachTheTable) {
  auto table = make_table("hd", fast_options());
  workload_config config = small_workload();
  config.churn_rate = 0.05;
  const generator gen(config);
  const auto events = gen.generate();
  std::size_t joins = 0;
  std::size_t leaves = 0;
  for (const auto& e : events) {
    joins += e.kind == event_kind::join ? 1 : 0;
    leaves += e.kind == event_kind::leave ? 1 : 0;
  }
  emulator emu(*table, 16);
  const auto stats = emu.run(events);
  EXPECT_EQ(stats.joins, joins);
  EXPECT_EQ(stats.leaves, leaves);
  EXPECT_EQ(table->server_count(), joins - leaves);
}

TEST(EmulatorTest, BufferedRequestsSeeTheTableStateTheyArrivedUnder) {
  // Regression: the emulator used to apply every join/leave in a batch
  // before answering any buffered request, so a request that arrived
  // before a leave was resolved against the post-churn table.  With a
  // buffer large enough to hold the whole stream, the per-server load
  // histogram must still match an event-by-event replay.
  auto table = make_table("consistent", fast_options());
  auto reference = make_table("consistent", fast_options());

  std::vector<event> events;
  for (server_id s = 1; s <= 8; ++s) {
    events.push_back(event{event_kind::join, s * 977});
    reference->join(s * 977);
  }
  // Interleave churn with requests inside what will be a single batch:
  // requests 0..499, then a leave, requests 500..999, then a join.
  std::unordered_map<server_id, std::uint64_t> expected;
  auto expect_requests = [&](request_id from, request_id to) {
    for (request_id r = from; r < to; ++r) {
      const request_id id = r * 0x9e3779b97f4a7c15ULL;
      events.push_back(event{event_kind::request, id});
      ++expected[reference->lookup(id)];
    }
  };
  expect_requests(0, 500);
  events.push_back(event{event_kind::leave, 3 * 977});
  reference->leave(3 * 977);
  expect_requests(500, 1000);
  events.push_back(event{event_kind::join, 9 * 977});
  reference->join(9 * 977);
  expect_requests(1000, 1500);

  // The departed server must own some pre-leave requests, or the
  // scenario would not discriminate (sanity check on the setup).
  ASSERT_GT(expected[3 * 977], 0u);

  emulator emu(*table, events.size());  // one batch holds everything
  const auto stats = emu.run(events);
  EXPECT_EQ(stats.requests, 1500u);
  EXPECT_EQ(stats.load, expected);
}

TEST(EmulatorTest, SmallBufferStillProcessesEverything) {
  auto table = make_table("jump", fast_options());
  const generator gen(small_workload());
  emulator emu(*table, 1);  // degenerate batch size
  const auto stats = emu.run(gen.generate());
  EXPECT_EQ(stats.requests, 1000u);
}

/// `count` request events with distinct ids.
std::vector<event> request_stream(std::size_t count) {
  std::vector<event> events;
  for (request_id r = 0; r < count; ++r) {
    events.push_back(event{event_kind::request, r * 0x9e3779b97f4a7c15ULL});
  }
  return events;
}

/// Sub-batches an emulator of `capacity` makes of `events` on a
/// four-server table.
std::size_t batches_of(const std::vector<event>& events,
                       std::size_t capacity) {
  auto table = make_table("jump", fast_options());
  for (server_id s = 1; s <= 4; ++s) {
    table->join(s);
  }
  emulator emu(*table, capacity);
  emu.set_timing(false);
  return emu.run(events).batches;
}

TEST(EmulatorTest, BatchesAreConsecutiveBufferSpans) {
  // A request-only stream is cut into ceil(N / c) buffer batches of c
  // consecutive events, each one lookup_batch call.
  constexpr std::size_t kRequests = 1000;
  const std::vector<event> events = request_stream(kRequests);
  for (const std::size_t capacity : {1, 250, 256, 1000}) {
    EXPECT_EQ(batches_of(events, capacity),
              (kRequests + capacity - 1) / capacity)
        << "capacity " << capacity;
  }
}

TEST(EmulatorTest, MembershipEventSplitsOnlyTheBatchItFallsIn) {
  // At capacity 256 the 1,000 requests make 4 batches.  A join after
  // request 100 splits the first batch into two sub-batches; the same
  // join at event index 256 opens the second batch and splits nothing.
  const auto with_join_at = [](std::size_t index) {
    std::vector<event> events = request_stream(1000);
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(index),
                  event{event_kind::join, 99});
    return events;
  };
  EXPECT_EQ(batches_of(request_stream(1000), 256), 4u);
  EXPECT_EQ(batches_of(with_join_at(100), 256), 5u);
  EXPECT_EQ(batches_of(with_join_at(256), 256), 4u);
}

TEST(EmulatorTest, ZeroCapacityThrows) {
  auto table = make_table("jump", fast_options());
  EXPECT_THROW(emulator(*table, 0), precondition_error);
}

}  // namespace
}  // namespace hdhash
