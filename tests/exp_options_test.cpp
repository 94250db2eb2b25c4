/// The unified emulator flag parser (exp/emulator_options.hpp): flag
/// forms, auto sizing, error collection and apply() onto
/// sharded_config.
#include "exp/emulator_options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/cpu_topology.hpp"
#include "runtime/placement_plan.hpp"
#include "scenario/playbooks.hpp"

namespace hdhash {
namespace {

/// argv builder: gtest's argv is const-hostile, so tests assemble one.
emulator_options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "driver");
  return parse_emulator_options(
      static_cast<int>(args.size()),
      const_cast<char**>(const_cast<const char**>(args.data())));
}

TEST(EmulatorOptionsTest, DefaultsWhenNoFlagsGiven) {
  ::unsetenv("HDHASH_PIN");
  const emulator_options opts = parse({});
  EXPECT_TRUE(opts.ok());
  EXPECT_FALSE(opts.shards_set);
  EXPECT_EQ(opts.shards, 0u);
  EXPECT_FALSE(opts.producers_set);
  EXPECT_EQ(opts.producers, 1u);
  EXPECT_FALSE(opts.placement_set);
}

TEST(EmulatorOptionsTest, ParsesBothFlagForms) {
  const emulator_options equals = parse({"--shards=8", "--producers=2"});
  EXPECT_TRUE(equals.ok());
  EXPECT_TRUE(equals.shards_set);
  EXPECT_EQ(equals.shards, 8u);
  EXPECT_EQ(equals.producers, 2u);

  const emulator_options spaced = parse({"--shards", "8", "--producers", "2"});
  EXPECT_TRUE(spaced.ok());
  EXPECT_EQ(spaced.shards, 8u);
  EXPECT_EQ(spaced.producers, 2u);
}

TEST(EmulatorOptionsTest, ParsesPlacement) {
  const emulator_options opts = parse({"--pin=none"});
  EXPECT_TRUE(opts.ok());
  EXPECT_TRUE(opts.placement_set);
  EXPECT_EQ(opts.placement, runtime::placement_policy::none);

  // Only none and compact exist; any other policy is a malformed flag.
  for (const auto removed : {"--pin=scatter", "--pin=smt-aware"}) {
    const emulator_options bad = parse({removed});
    EXPECT_FALSE(bad.ok()) << removed;
    ASSERT_EQ(bad.errors.size(), 1u) << removed;
    EXPECT_NE(bad.errors[0].find("--pin"), std::string::npos);
  }
}

TEST(EmulatorOptionsTest, AutoValuesResolveAgainstTopology) {
  const emulator_options opts = parse({"--shards=auto", "--producers=auto"});
  EXPECT_TRUE(opts.ok());
  EXPECT_TRUE(opts.shards_auto);
  EXPECT_GE(opts.shards, 1u);
  EXPECT_TRUE(opts.producers_auto);
  EXPECT_EQ(opts.producers,
            runtime::plan_io_shard_split(runtime::host_topology()).io_threads);
}

TEST(EmulatorOptionsTest, UnknownFlagsAreIgnored) {
  const emulator_options opts =
      parse({"--json=out.json", "--requests=100", "--shards=4"});
  EXPECT_TRUE(opts.ok());
  EXPECT_EQ(opts.shards, 4u);
}

TEST(EmulatorOptionsTest, CollectsEveryMalformedFlag) {
  const emulator_options opts =
      parse({"--shards=zero", "--pin=everywhere", "--scenario=nowhere"});
  EXPECT_FALSE(opts.ok());
  EXPECT_EQ(opts.errors.size(), 3u);
}

TEST(EmulatorOptionsTest, ParsesScenarioByName) {
  for (const std::string_view name : scenario_names()) {
    const std::string flag = "--scenario=" + std::string(name);
    const emulator_options opts = parse({flag.c_str()});
    EXPECT_TRUE(opts.ok()) << name;
    EXPECT_TRUE(opts.scenario_set);
    EXPECT_EQ(opts.scenario, name);
  }
  const emulator_options spaced = parse({"--scenario", "rack-failure"});
  EXPECT_TRUE(spaced.ok());
  EXPECT_EQ(spaced.scenario, "rack-failure");
}

TEST(EmulatorOptionsTest, UnknownScenarioCollectsAnErrorListingAll) {
  for (const auto bad : {"--scenario=warp-drive", "--scenario="}) {
    const emulator_options opts = parse({bad});
    EXPECT_FALSE(opts.ok()) << bad;
    EXPECT_TRUE(opts.scenario_set);
    EXPECT_TRUE(opts.scenario.empty());
    ASSERT_EQ(opts.errors.size(), 1u);
    for (const std::string_view name : scenario_names()) {
      EXPECT_NE(opts.errors.front().find(name), std::string::npos) << name;
    }
  }
  // A malformed scenario joins the other errors instead of aborting.
  const emulator_options opts =
      parse({"--scenario=warp-drive", "--shards=zero"});
  EXPECT_EQ(opts.errors.size(), 2u);
}

TEST(EmulatorOptionsTest, ApplyCopiesOntoShardedConfig) {
  const emulator_options opts =
      parse({"--shards=4", "--producers=2", "--pin=none"});
  ASSERT_TRUE(opts.ok());
  sharded_config config;
  opts.apply(config);
  EXPECT_EQ(config.shards, 4u);
  EXPECT_EQ(config.producers, 2u);
  EXPECT_EQ(config.placement, runtime::placement_policy::none);
}

TEST(EmulatorOptionsTest, ApplyLeavesUnsetKnobsAlone) {
  const emulator_options opts = parse({"--pin=none"});
  ASSERT_TRUE(opts.ok());
  sharded_config config;
  config.shards = 7;
  config.producers = 1;
  opts.apply(config);
  EXPECT_EQ(config.shards, 7u);  // absent flag leaves the default
  EXPECT_EQ(config.placement, runtime::placement_policy::none);
}

TEST(EmulatorOptionsTest, ParsePositiveValueIsStrict) {
  EXPECT_EQ(parse_positive_value("17"), 17u);
  EXPECT_EQ(parse_positive_value("0"), 0u);
  EXPECT_EQ(parse_positive_value("-3"), 0u);
  EXPECT_EQ(parse_positive_value("1e3"), 0u);
  EXPECT_EQ(parse_positive_value(""), 0u);
  EXPECT_EQ(parse_positive_value("12abc"), 0u);
}

}  // namespace
}  // namespace hdhash
