/// \file emulator_options.hpp
/// \brief One emulator flag surface for every driver: the parsed
/// `emulator_options` struct behind `--shards`, `--producers`, `--pin`
/// and `--scenario`, consumed by the benches, the examples and the
/// shard-sweep driver.  Parsing rules:
///
///  * unknown flags are *ignored* — every driver has its own extra
///    flags (`--json`, `--requests`, `--connections`, …) and parses
///    them separately;
///  * malformed *known* flags are collected into `errors`, so a driver
///    fails loudly with every problem at once instead of silently
///    skipping the panel the user asked for;
///  * `auto` values resolve against the discovered host topology at
///    parse time (`--shards auto`, `--producers auto`), the same
///    sizing the net server uses;
///  * the HDHASH_PIN default applies exactly when `--pin` is absent —
///    the flag always wins over its env var.  The arena backing has no
///    flag: HDHASH_MEM alone picks it (src/mem/arena_options.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "emu/sharded_emulator.hpp"
#include "runtime/placement_plan.hpp"

namespace hdhash {

/// Emulator knobs shared by every pipeline driver, with per-knob
/// presence so callers can distinguish "defaulted" from "requested".
struct emulator_options {
  /// --shards N | auto.  `shards` carries the resolved count (auto is
  /// resolved at parse time against the host topology, reserving the
  /// producer cores); 0 when the flag is absent — drivers keep their
  /// own default.
  bool shards_set = false;
  bool shards_auto = false;
  std::size_t shards = 0;

  /// --producers M | auto (auto: the io-reactor heuristic — one per
  /// four allowed physical cores, between 1 and 4).
  bool producers_set = false;
  bool producers_auto = false;
  std::size_t producers = 1;

  /// --pin none|compact; default per HDHASH_PIN.
  bool placement_set = false;
  runtime::placement_policy placement = runtime::default_placement_policy();

  /// --scenario <name>: a named production playbook
  /// (scenario/playbooks.hpp) the driver should compile its workload
  /// from instead of the plain generator.  Empty when the flag is
  /// absent; an unknown name lands in `errors` listing every valid
  /// playbook.
  bool scenario_set = false;
  std::string scenario;

  /// One human-readable message per malformed known flag ("--shards
  /// needs a positive integer or auto").  Empty = parse clean.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }

  /// Copies every parsed knob onto a pipeline configuration (absent
  /// knobs leave the config's value untouched).
  void apply(sharded_config& config) const;
};

/// Scans argv for the shared emulator flags (both `--flag=value` and
/// `--flag value` forms).  Never throws on bad input — problems land
/// in `errors` so drivers report them all; unknown flags are ignored.
emulator_options parse_emulator_options(int argc, char** argv);

/// Strict positive-integer parse for CLI values: rejects empty input,
/// trailing garbage ("1e3"), out-of-range and non-positive values by
/// returning 0 (never silently truncates).
std::size_t parse_positive_value(const char* text);

}  // namespace hdhash
