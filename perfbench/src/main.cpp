/// perfbench — one command for the repository's benchmark workloads.
///
///   perfbench --workload <tcp-steady|emu-churn|emu-faults> --seed <n>
///             --seconds <s> --trace <0|1> [--trace-dir <dir>]
///             [--git-commit <id>] [--source-digest <hex>]
///
/// Prints human-readable lines, then a stamp line, then as its last
/// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1
/// the per-layer ones from the traced run (see NOTES.md).
///
/// Self-test options: --wrong-answers <n> counts the first n answers as
/// wrong; --fault-algorithm <name> runs emu-faults on another
/// algorithm (consistent-rank must show mismatches).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "mem/arena_options.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::run_options;

bool parse(int argc, char** argv, run_options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--git-commit") {
      options.git_commit = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else if (flag == "--wrong-answers") {
      options.wrong_answers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--fault-algorithm") {
      options.fault_algorithm = value;
    } else {
      std::fprintf(stderr, "unknown option %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    std::fprintf(stderr, "need --workload and a positive --seconds\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  run_options options;
  if (!parse(argc, argv, options)) {
    return 2;
  }
  // Arena backing: 4 KB pages unless HDHASH_MEM asks otherwise.  With
  // transparent hugepages the share of arena memory the kernel backs
  // with 2 MB pages varies from process to process, and emu-churn's
  // rate with it (about 10% between identical runs); the stamp records
  // the backing used.
  if (std::getenv("HDHASH_MEM") == nullptr) {
    hdhash::mem::set_mem_request_override(hdhash::mem::mem_request::page);
  }
  perfbench::run_result result;
  try {
    if (options.workload == "tcp-steady") {
      result = perfbench::run_tcp_steady(options);
    } else if (options.workload == "emu-churn") {
      result = perfbench::run_emu_churn(options);
    } else if (options.workload == "emu-faults") {
      result = perfbench::run_emu_faults(options);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  for (const std::string& line : result.notes) {
    std::printf("# %s\n", line.c_str());
  }
  const double attempted =
      static_cast<double>(result.attempted > 0 ? result.attempted : 1);
  std::printf("# error_frac %.9g ratio (%llu of %llu)\n",
              static_cast<double>(result.failed) / attempted,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const perfbench::metric& m : result.metrics) {
    std::printf("# %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (options.trace) {
    const std::string path = options.trace_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (perfbench::trace::write_spans(path, 200'000)) {
      std::printf("# spans written to %s\n", path.c_str());
    }
  }
  {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("# page_faults minor %ld major %ld\n", usage.ru_minflt,
                usage.ru_majflt);
  }
  std::printf("# stamp %s\n",
              perfbench::host_stamp(options, result.pinned_workers).c_str());

  const bool correct = result.failed == 0 && result.mismatched == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed + result.mismatched);
  json += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::metric& m = result.metrics[i];
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
