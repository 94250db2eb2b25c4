/// Sharded, double-buffered emulator: determinism against the
/// single-table reference, merge() accounting, shadow mirroring and
/// degenerate configurations.  These tests exercise real worker threads
/// and are the primary TSan target (-DHDHASH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "emu/emulator.hpp"
#include "emu/generator.hpp"
#include "emu/sharded_emulator.hpp"
#include "exp/factory.hpp"
#include "exp/sharded.hpp"
#include "util/require.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 128;
  return options;
}

workload_config churn_workload() {
  workload_config config;
  config.initial_servers = 12;
  config.request_count = 4000;
  config.churn_rate = 0.02;
  config.seed = 11;
  return config;
}

sharded_emulator::table_factory factory_for(std::string_view algorithm) {
  return [algorithm](std::size_t) {
    return make_table(algorithm, fast_options());
  };
}

/// Live-epoch accounting shared by every table of one run.
struct epoch_census {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};
};

/// Forwards every call to a wrapped table; snapshot() wraps each
/// published table so the census counts it as live until its last
/// holder drops it.
class census_table final : public dynamic_table {
 public:
  census_table(std::unique_ptr<dynamic_table> inner,
               std::shared_ptr<epoch_census> census)
      : mutable_(inner.get()),
        view_(std::move(inner)),
        census_(std::move(census)) {}
  ~census_table() override {
    if (mutable_ == nullptr) {
      census_->live.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  census_table(const census_table&) = delete;
  census_table& operator=(const census_table&) = delete;

  void join(server_id server, double weight = 1.0) override {
    writable().join(server, weight);
  }
  void leave(server_id server) override { writable().leave(server); }
  server_id lookup(request_id request) const override {
    return view_->lookup(request);
  }
  void lookup_batch(std::span<const request_id> requests,
                    std::span<server_id> out) const override {
    view_->lookup_batch(requests, out);
  }
  using dynamic_table::lookup_batch;
  double weight(server_id server) const override {
    return view_->weight(server);
  }
  table_stats stats() const override { return view_->stats(); }
  bool contains(server_id server) const override {
    return view_->contains(server);
  }
  std::size_t server_count() const override { return view_->server_count(); }
  std::vector<server_id> servers() const override { return view_->servers(); }
  std::string_view name() const noexcept override { return view_->name(); }
  std::unique_ptr<dynamic_table> clone() const override {
    return view_->clone();
  }
  std::shared_ptr<const dynamic_table> snapshot() const override {
    return std::shared_ptr<const dynamic_table>(
        new census_table(view_->snapshot(), census_));
  }
  std::vector<memory_region> fault_regions() override {
    return writable().fault_regions();
  }

 private:
  /// A published table: counted live from here to its destructor.
  census_table(std::shared_ptr<const dynamic_table> published,
               std::shared_ptr<epoch_census> census)
      : view_(std::move(published)), census_(std::move(census)) {
    const std::int64_t live =
        census_->live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t peak = census_->peak.load(std::memory_order_relaxed);
    while (live > peak && !census_->peak.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }

  dynamic_table& writable() {
    HDHASH_REQUIRE(mutable_ != nullptr, "published tables are immutable");
    return *mutable_;
  }

  dynamic_table* mutable_ = nullptr;  // null for published tables
  std::shared_ptr<const dynamic_table> view_;
  std::shared_ptr<epoch_census> census_;
};

TEST(ShardedEmulatorTest, MergedStatsEqualSingleTableReference) {
  const generator gen(churn_workload());
  const auto events = gen.generate();
  for (const auto algorithm : {"consistent", "hd-hierarchical"}) {
    auto reference_table = make_table(algorithm, fast_options());
    emulator reference(*reference_table, 256);
    const run_stats expected = reference.run(events);

    for (const auto membership : {membership_mode::snapshot,
                                  membership_mode::replicated}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{4}}) {
        sharded_config config;
        config.shards = shards;
        config.membership = membership;
        sharded_emulator emu(factory_for(algorithm), config);
        const sharded_report report = emu.run(events);
        const char* mode =
            membership == membership_mode::snapshot ? "snapshot" : "replicated";
        EXPECT_EQ(report.merged.requests, expected.requests)
            << algorithm << " " << mode << " shards=" << shards;
        EXPECT_EQ(report.merged.joins, expected.joins)
            << algorithm << " " << mode << " shards=" << shards;
        EXPECT_EQ(report.merged.leaves, expected.leaves)
            << algorithm << " " << mode << " shards=" << shards;
        // The headline determinism guarantee: the merged per-server load
        // histogram is bit-identical to the single-table run.
        EXPECT_EQ(report.merged.load, expected.load)
            << algorithm << " " << mode << " shards=" << shards;
      }
    }
  }
}

TEST(ShardedEmulatorTest, PlacementPoliciesNeverChangeAssignments) {
  // The acceptance bar of the runtime layer: placement decides *where*
  // workers execute, never *what* they answer — the merged histogram is
  // bit-identical to the single-table reference under every policy at
  // 1–8 shards (snapshot membership, churny stream).
  const generator gen(churn_workload());
  const auto events = gen.generate();
  auto reference_table = make_table("hd-hierarchical", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const auto policy :
       {runtime::placement_policy::none, runtime::placement_policy::compact,
        runtime::placement_policy::scatter,
        runtime::placement_policy::smt_aware}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      sharded_config config;
      config.shards = shards;
      config.placement = policy;
      sharded_emulator emu(factory_for("hd-hierarchical"), config);
      const sharded_report report = emu.run(events);
      EXPECT_EQ(report.merged.load, expected.load)
          << runtime::to_string(policy) << " shards=" << shards;
      EXPECT_EQ(report.placement, policy);
      ASSERT_EQ(report.workers.size(), shards);
      for (const runtime::worker_info& worker : report.workers) {
        if (policy == runtime::placement_policy::none) {
          // `none` never even attempts the affinity call.
          EXPECT_FALSE(worker.pinned);
        }
        if (worker.pinned) {
          EXPECT_GE(worker.cpu, 0);
          EXPECT_GE(worker.node, 0);
        } else {
          EXPECT_EQ(worker.cpu, -1);
        }
      }
    }
  }
}

TEST(ShardedEmulatorTest, EveryShardReplicatesTheFullPool) {
  const generator gen(churn_workload());
  const auto events = gen.generate();
  sharded_config config;
  config.shards = 3;
  config.membership = membership_mode::replicated;
  sharded_emulator emu(factory_for("consistent"), config);
  const sharded_report report = emu.run(events);
  ASSERT_EQ(report.per_shard.size(), 3u);
  std::size_t shard_requests = 0;
  for (std::size_t s = 0; s < emu.shards(); ++s) {
    // Broadcast membership: every replica applied every join/leave.
    EXPECT_EQ(report.per_shard[s].joins, report.merged.joins);
    EXPECT_EQ(report.per_shard[s].leaves, report.merged.leaves);
    EXPECT_EQ(emu.table(s).server_count(),
              report.merged.joins - report.merged.leaves);
    shard_requests += report.per_shard[s].requests;
  }
  // Partitioned requests: each answered in exactly one shard.
  EXPECT_EQ(shard_requests, report.merged.requests);
}

TEST(ShardedEmulatorTest, ShadowOraclesSeeNoMismatch) {
  // In both membership modes an uncorrupted run must agree with its
  // shadow on every answer (the deeper conformance suite — corrupted
  // tables, bit-identical counts across modes — lives in
  // scenario_oracle_test.cpp).
  const generator gen(churn_workload());
  const auto events = gen.generate();
  for (const auto membership : {membership_mode::snapshot,
                                membership_mode::replicated}) {
    sharded_config config;
    config.shards = 4;
    config.shadow = true;
    config.membership = membership;
    sharded_emulator emu(factory_for("hd-hierarchical"), config);
    const sharded_report report = emu.run(events);
    EXPECT_GT(report.merged.requests, 0u);
    EXPECT_EQ(report.merged.mismatches, 0u);
    EXPECT_EQ(report.merged.invalid_assignments, 0u);
  }
}

TEST(ShardedEmulatorTest, DegenerateConfigurationsStillComplete) {
  workload_config workload = churn_workload();
  workload.request_count = 300;
  const generator gen(workload);
  const auto events = gen.generate();

  auto reference_table = make_table("consistent", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const auto membership : {membership_mode::snapshot,
                                membership_mode::replicated}) {
    for (const std::size_t buffer : {std::size_t{1}, std::size_t{7}}) {
      sharded_config config;
      config.shards = 2;
      config.buffer_capacity = buffer;  // every event its own batch, odd size
      config.membership = membership;
      sharded_emulator emu(factory_for("consistent"), config);
      const sharded_report report = emu.run(events);
      EXPECT_EQ(report.merged.load, expected.load) << "buffer=" << buffer;
    }
  }
}

TEST(ShardedEmulatorTest, RequestPartitionIsStable) {
  sharded_config config;
  config.shards = 8;
  sharded_emulator emu(factory_for("consistent"), config);
  for (request_id r = 1; r < 100; ++r) {
    const std::size_t shard = emu.shard_of(r);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, emu.shard_of(r));
  }
}

TEST(ShardedEmulatorTest, WorkerExceptionsPropagate) {
  // A leave for an unknown server faults inside a worker thread; the
  // error must surface on the calling thread, not crash the process.
  sharded_config config;
  config.shards = 2;
  sharded_emulator emu(factory_for("consistent"), config);
  const std::vector<event> events = {{event_kind::leave, 404}};
  EXPECT_THROW(emu.run(events), precondition_error);
}

TEST(ShardedEmulatorTest, MultiProducerMeshStaysDeterministic) {
  // The tentpole guarantee of the ingest mesh: M pinned producers
  // splitting the stream by index range, feeding lock-free SPSC lanes,
  // reproduce the single-table reference histogram bit for bit — the
  // epoch pre-scan sequences membership, so partitioning the request
  // stream cannot reorder anything observable.
  const generator gen(churn_workload());
  const auto events = gen.generate();
  auto reference_table = make_table("hd-hierarchical", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const std::size_t producers : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      sharded_config config;
      config.shards = shards;
      config.producers = producers;
      config.membership = membership_mode::snapshot;
      sharded_emulator emu(factory_for("hd-hierarchical"), config);
      const sharded_report report = emu.run(events);
      EXPECT_EQ(report.merged.load, expected.load)
          << "producers=" << producers << " shards=" << shards;
      EXPECT_EQ(report.merged.requests, expected.requests);
      EXPECT_EQ(report.merged.joins, expected.joins);
      EXPECT_EQ(report.merged.leaves, expected.leaves);
      // Worker layout: decode workers first, producer threads after.
      EXPECT_EQ(report.workers.size(), shards);
      EXPECT_EQ(report.producer_workers.size(), producers);
    }
  }
}

TEST(ShardedEmulatorTest, RetiredEpochsDrainWhileTheRunIsInFlight) {
  // One producer routes each request as soon as its epoch is published,
  // so an epoch lives only while some batch in the pipeline still
  // carries its requests — not until the whole stream has been routed.
  workload_config workload = churn_workload();
  workload.initial_servers = 16;
  workload.request_count = 30'000;
  workload.churn_rate = 0.05;
  const auto events = generator(workload).generate();
  table_options options = fast_options();
  options.hd.slot_cache = true;
  auto reference_table = make_table("hd-hierarchical", options);
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  auto census = std::make_shared<epoch_census>();
  sharded_config config;
  config.shards = 2;
  config.producers = 1;
  config.buffer_capacity = 16;
  config.channel_depth = 2;
  sharded_emulator emu(
      [&options, &census](std::size_t) {
        return std::make_unique<census_table>(
            make_table("hd-hierarchical", options), census);
      },
      config);
  const sharded_report report = emu.run(events);
  EXPECT_EQ(report.merged.load, expected.load);
  ASSERT_GT(report.snapshots_published, 1000u);
  // In flight per shard: the batch being filled, channel_depth queued
  // batches and the batch being decoded, each holding at most
  // buffer_capacity epoch segments; plus the publisher's current epoch.
  const std::size_t in_flight = config.shards * (config.channel_depth + 2) *
                                    config.buffer_capacity +
                                1;
  EXPECT_LE(static_cast<std::size_t>(census->peak.load()), in_flight);
  // After the run only the publisher's current epoch is left.
  EXPECT_EQ(census->live.load(), 1);
}

TEST(ShardedEmulatorTest, MutexChannelProducesIdenticalResults) {
  // --channel mutex is the A/B reference: swapping the channel
  // implementation must never change a single assignment, with one
  // producer or several.
  const generator gen(churn_workload());
  const auto events = gen.generate();
  auto reference_table = make_table("hd-hierarchical", fast_options());
  emulator reference(*reference_table, 256);
  const run_stats expected = reference.run(events);

  for (const std::size_t producers : {std::size_t{1}, std::size_t{2}}) {
    sharded_config config;
    config.shards = 2;
    config.producers = producers;
    config.channel = channel_kind::mutex;
    sharded_emulator emu(factory_for("hd-hierarchical"), config);
    const sharded_report report = emu.run(events);
    EXPECT_EQ(report.merged.load, expected.load) << "producers=" << producers;
    EXPECT_EQ(report.channel, channel_kind::mutex);
  }
}

TEST(ShardedEmulatorTest, MultiProducerSweepMatchesReference) {
  shard_sweep_config config;
  config.shard_counts = {1, 2};
  config.servers = 16;
  config.requests = 2000;
  config.churn_rate = 0.01;
  config.producers = 2;
  const auto series =
      run_shard_sweep("hd-hierarchical", config, fast_options());
  for (const shard_sweep_point& point : series) {
    EXPECT_TRUE(point.matches_reference) << "shards=" << point.shards;
    EXPECT_EQ(point.producers, 2u);
  }
}

TEST(ShardedEmulatorTest, RejectsInvalidConfiguration) {
  sharded_config zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_shards),
               precondition_error);
  sharded_config zero_buffer;
  zero_buffer.buffer_capacity = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_buffer),
               precondition_error);
  sharded_config zero_producers;
  zero_producers.producers = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_producers),
               precondition_error);
  // Replicated membership broadcasts events in stream order — that
  // needs the single-producer pipeline.
  sharded_config multi_replicated;
  multi_replicated.producers = 2;
  multi_replicated.membership = membership_mode::replicated;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), multi_replicated),
               precondition_error);
  sharded_config zero_depth;
  zero_depth.channel_depth = 0;
  EXPECT_THROW(sharded_emulator(factory_for("consistent"), zero_depth),
               precondition_error);
}

TEST(RunStatsMergeTest, SumsCountersAndLoadHistograms) {
  run_stats a;
  a.requests = 10;
  a.joins = 2;
  a.leaves = 1;
  a.batches = 3;
  a.mismatches = 4;
  a.invalid_assignments = 1;
  a.total_request_ns = 50.0;
  a.load[7] = 6;
  a.load[9] = 4;
  run_stats b;
  b.requests = 5;
  b.batches = 1;
  b.total_request_ns = 25.0;
  b.load[9] = 2;
  b.load[11] = 3;

  const std::vector<run_stats> parts = {a, b};
  const run_stats merged = merge(parts);
  EXPECT_EQ(merged.requests, 15u);
  EXPECT_EQ(merged.joins, 2u);
  EXPECT_EQ(merged.leaves, 1u);
  EXPECT_EQ(merged.batches, 4u);
  EXPECT_EQ(merged.mismatches, 4u);
  EXPECT_EQ(merged.invalid_assignments, 1u);
  EXPECT_DOUBLE_EQ(merged.total_request_ns, 75.0);
  EXPECT_EQ(merged.load.at(7), 6u);
  EXPECT_EQ(merged.load.at(9), 6u);
  EXPECT_EQ(merged.load.at(11), 3u);
  EXPECT_DOUBLE_EQ(merged.avg_request_ns(), 5.0);
}

TEST(ShardSweepDriverTest, SweepIsDeterministicAtEveryShardCount) {
  shard_sweep_config config;
  config.shard_counts = {1, 2, 4};
  config.servers = 16;
  config.requests = 3000;
  config.churn_rate = 0.01;
  const auto series =
      run_shard_sweep("hd-hierarchical", config, fast_options());
  ASSERT_EQ(series.size(), 3u);
  for (const shard_sweep_point& point : series) {
    EXPECT_TRUE(point.matches_reference) << "shards=" << point.shards;
    EXPECT_EQ(point.merged.requests, 3000u);
    EXPECT_GT(point.aggregate_requests_per_second, 0.0);
    EXPECT_GT(point.wall_requests_per_second, 0.0);
  }
  EXPECT_DOUBLE_EQ(series[0].aggregate_speedup, 1.0);
}

}  // namespace
}  // namespace hdhash
