#include "exp/emulator_options.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "runtime/worker_pool.hpp"
#include "scenario/playbooks.hpp"

namespace hdhash {

namespace {

/// Extracts the value of `--name=v` / `--name v` at position i;
/// nullptr when argv[i] is not this flag.  Advances *i over a consumed
/// separate-argument value.  A flag present with no value yields "".
const char* flag_value(int argc, char** argv, int* i, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[*i], name, len) != 0) {
    return nullptr;
  }
  const char* rest = argv[*i] + len;
  if (*rest == '=') {
    return rest + 1;
  }
  if (*rest != '\0') {
    return nullptr;  // a longer flag that merely shares the prefix
  }
  if (*i + 1 < argc) {
    ++*i;
    return argv[*i];
  }
  return "";
}

}  // namespace

std::size_t parse_positive_value(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  // Reject trailing garbage ("1e3"), empty values and out-of-range
  // input outright instead of silently truncating.
  if (end == text || *end != '\0' || errno == ERANGE || value <= 0) {
    return 0;
  }
  return static_cast<std::size_t>(value);
}

emulator_options parse_emulator_options(int argc, char** argv) {
  emulator_options opts;
  for (int i = 1; i < argc; ++i) {
    if (const char* value = flag_value(argc, argv, &i, "--shards")) {
      opts.shards_set = true;
      if (std::strcmp(value, "auto") == 0) {
        opts.shards_auto = true;  // resolved after the loop: the
                                  // reservation depends on --producers
      } else if ((opts.shards = parse_positive_value(value)) == 0) {
        opts.errors.push_back("--shards needs a positive integer or auto");
      }
    } else if (const char* value = flag_value(argc, argv, &i, "--producers")) {
      opts.producers_set = true;
      if (std::strcmp(value, "auto") == 0) {
        opts.producers_auto = true;
        opts.producers =
            runtime::plan_io_shard_split(runtime::host_topology()).io_threads;
      } else if ((opts.producers = parse_positive_value(value)) == 0) {
        opts.errors.push_back("--producers needs a positive integer or auto");
      }
    } else if (const char* value = flag_value(argc, argv, &i, "--pin")) {
      opts.placement_set = true;
      if (const auto policy = runtime::parse_placement_policy(value)) {
        opts.placement = *policy;
      } else {
        opts.errors.push_back("--pin needs one of none|compact");
      }
    } else if (const char* value = flag_value(argc, argv, &i, "--scenario")) {
      opts.scenario_set = true;
      if (is_scenario_name(value)) {
        opts.scenario = value;
      } else {
        std::string message = "--scenario needs one of";
        for (const std::string_view name : scenario_names()) {
          message += ' ';
          message += name;
        }
        opts.errors.push_back(std::move(message));
      }
    }
  }
  if (opts.shards_auto) {
    // Sized to the discovered topology: one worker per allowed
    // physical core, holding back the producer cores (one for the
    // historical caller-thread producer, M for a --producers fan-out).
    const std::size_t reserved = opts.producers > 1 ? opts.producers : 1;
    opts.shards =
        runtime::auto_shard_count(runtime::host_topology(), reserved);
  }
  return opts;
}

void emulator_options::apply(sharded_config& config) const {
  if (shards_set && shards > 0) {
    config.shards = shards;
  }
  if (producers_set && producers > 0) {
    config.producers = producers;
  }
  if (placement_set) {
    config.placement = placement;
  }
}

}  // namespace hdhash
