/// Shadow-oracle conformance: the sharded emulator's shadows (a
/// pristine twin publisher advancing epochs in lockstep) must produce
/// mismatch and invalid-assignment counts bit-identical to a plain
/// emulator per shard — each with its own pristine clone, replaying the
/// membership events plus that shard's requests — with and without
/// fault injection.  That is the property that lets robustness
/// scenarios run on the epoch-snapshot pipeline.  Spins worker threads;
/// runs in the TSan lane.
#include <gtest/gtest.h>

#include <vector>

#include "emu/emulator.hpp"
#include "emu/sharded_emulator.hpp"
#include "exp/factory.hpp"
#include "fault/injector.hpp"
#include "scenario/playbooks.hpp"
#include "scenario/scenario.hpp"

namespace hdhash {
namespace {

table_options fast_options() {
  table_options options;
  options.hd.dimension = 1024;
  options.hd.capacity = 128;
  return options;
}

scenario_tuning small_tuning() {
  scenario_tuning tuning;
  tuning.phase_ticks = 32;
  tuning.base_rate = 24.0;
  tuning.servers = 16;
  tuning.rack_size = 4;
  tuning.seed = 13;
  return tuning;
}

/// The conformance workload: a churny playbook compiled unweighted (so
/// any algorithm replays it), split into the initial join burst — which
/// the factory pre-applies, putting real membership into the tables
/// *before* shadow cloning and corruption — and the live remainder.
struct oracle_workload {
  compiled_scenario compiled;
  std::span<const event> live;

  explicit oracle_workload(const char* playbook)
      : compiled(compile_scenario(make_scenario(playbook, small_tuning()),
                                  /*weighted=*/false)),
        live(std::span<const event>(compiled.events)
                 .subspan(compiled.phases.front().first_event)) {}

  sharded_emulator::table_factory factory(std::string_view algorithm) const {
    const std::span<const event> burst =
        std::span<const event>(compiled.events)
            .first(compiled.phases.front().first_event);
    return [algorithm, burst](std::size_t) {
      auto table = make_table(algorithm, fast_options());
      for (const event& e : burst) {
        table->join(e.id, e.weight);
      }
      return table;
    };
  }
};

/// Deterministic SEU corruption: every table this hook touches — the
/// sharded emulator's producer table, each per-shard reference table —
/// gets the identical flip set, because the injector is seeded off a
/// constant.
void corrupt_table(dynamic_table& table, std::size_t flips) {
  bit_flip_injector injector(0xFA11);
  injector.inject_random(table, flips);
}

TEST(ScenarioOracleTest, CleanSnapshotShadowSeesNoMismatch) {
  const oracle_workload workload("rack-failure");
  sharded_config config;
  config.shards = 2;
  config.shadow = true;
  sharded_emulator emu(workload.factory("hd"), config);
  const sharded_report report = emu.run(workload.live);
  EXPECT_EQ(report.merged.requests, workload.compiled.requests);
  EXPECT_EQ(report.merged.mismatches, 0u);
  EXPECT_EQ(report.merged.invalid_assignments, 0u);
}

TEST(ScenarioOracleTest, CorruptionIsCountedAgainstThePristineShadow) {
  const oracle_workload workload("rack-failure");
  sharded_config config;
  config.shards = 2;
  config.shadow = true;
  config.corrupt = [](dynamic_table& table, std::size_t) {
    corrupt_table(table, 24);
  };
  sharded_emulator emu(workload.factory("consistent-rank"), config);
  const sharded_report report = emu.run(workload.live);
  EXPECT_EQ(report.merged.requests, workload.compiled.requests);
  // 24 flips in a 16-server ring visibly remap rank-resolved lookups;
  // the shadow (cloned before the corrupt hook ran) catches them.
  EXPECT_GT(report.merged.mismatches, 0u);
  EXPECT_LE(report.merged.invalid_assignments, report.merged.mismatches);
}

TEST(ScenarioOracleTest, SnapshotCountsMatchPerShardEmulatorReference) {
  // The acceptance bar: at 1–8 shards, the sharded mismatch /
  // invalid-assignment counts equal a per-shard plain-emulator
  // reference exactly — merged and per shard.  Reference shard s clones
  // its pristine shadow, then takes the same corruption, then replays
  // every membership event plus the requests routed to shard s.
  const oracle_workload workload("rack-failure");
  for (const char* algorithm : {"consistent-rank", "hd"}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      sharded_config config;
      config.shards = shards;
      config.shadow = true;
      config.corrupt = [](dynamic_table& table, std::size_t) {
        corrupt_table(table, 24);
      };
      sharded_emulator sharded(workload.factory(algorithm), config);
      const sharded_report report = sharded.run(workload.live);
      ASSERT_EQ(report.per_shard.size(), shards);

      run_stats expected;
      for (std::size_t s = 0; s < shards; ++s) {
        std::vector<event> stream;
        for (const event& e : workload.live) {
          if (e.kind != event_kind::request || sharded.shard_of(e.id) == s) {
            stream.push_back(e);
          }
        }
        auto table = workload.factory(algorithm)(0);
        emulator reference(*table);
        reference.enable_shadow();
        corrupt_table(*table, 24);
        const run_stats want = reference.run(stream);
        expected.merge(want);

        EXPECT_EQ(report.per_shard[s].requests, want.requests)
            << algorithm << " shard " << s << "/" << shards;
        EXPECT_EQ(report.per_shard[s].mismatches, want.mismatches)
            << algorithm << " shard " << s << "/" << shards;
        EXPECT_EQ(report.per_shard[s].invalid_assignments,
                  want.invalid_assignments)
            << algorithm << " shard " << s << "/" << shards;
      }
      EXPECT_EQ(report.merged.requests, expected.requests)
          << algorithm << " shards=" << shards;
      EXPECT_EQ(report.merged.mismatches, expected.mismatches)
          << algorithm << " shards=" << shards;
      EXPECT_EQ(report.merged.invalid_assignments,
                expected.invalid_assignments)
          << algorithm << " shards=" << shards;
      if (algorithm == std::string_view("consistent-rank")) {
        // The corrupted rank table must actually diverge — a zero count
        // on both sides would make this conformance check vacuous.
        EXPECT_GT(report.merged.mismatches, 0u)
            << algorithm << " shards=" << shards;
      }
    }
  }
}

TEST(ScenarioOracleTest, ShadowStaysPristineAcrossEpochChurn) {
  // Post-burst churn (the rack failing, replacements joining) advances
  // both publishers; corruption before the run must never leak into the
  // shadow's later epochs through the copy-on-write rows.  hd decodes
  // through its corrupted item memory yet the run completes with every
  // answer checked; the count is deterministic for the fixed seed.
  const oracle_workload workload("rack-failure");
  sharded_config config;
  config.shards = 4;
  config.shadow = true;
  config.corrupt = [](dynamic_table& table, std::size_t) {
    corrupt_table(table, 512);
  };
  sharded_emulator emu(workload.factory("hd"), config);
  const sharded_report first = emu.run(workload.live);

  sharded_emulator again(workload.factory("hd"), config);
  const sharded_report second = again.run(workload.live);
  EXPECT_EQ(first.merged.requests, second.merged.requests);
  EXPECT_EQ(first.merged.mismatches, second.merged.mismatches);
  EXPECT_EQ(first.merged.invalid_assignments,
            second.merged.invalid_assignments);
}

}  // namespace
}  // namespace hdhash
