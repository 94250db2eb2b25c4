/// \file common.hpp
/// \brief Shared plumbing of the perfbench binary: run options, the
/// result record every workload returns, clocks, a log-bucketed
/// latency histogram, and the host/build stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/factory.hpp"
#include "table/dynamic_table.hpp"

namespace perfbench {

/// Command-line options of one benchmark run.
struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".";
  /// Source identity recorded in the stamp (run.py passes them in).
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
  /// Self-test hook: count this many received answers as wrong.
  std::uint64_t wrong_answers = 0;
  /// emu-faults self-test hook: the algorithm under fault injection.
  std::string fault_algorithm = "hd";
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports.  `failed` counts wrong, refused and missing
/// answers; `mismatched` counts answers that differ from a pristine
/// shadow oracle (emu-faults only).
struct run_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  /// Worker threads that were actually pinned (for the stamp).
  std::size_t pinned_workers = 0;
  std::vector<metric> metrics;
  /// Human-readable lines printed before the result (one per entry).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

using steady = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

inline double seconds_since(steady::time_point start) {
  return std::chrono::duration<double>(steady::now() - start).count();
}

/// Other tenants of a shared host only ever slow a sample down, so
/// each run is cut into short samples (time windows or jobs) and the
/// metrics take the value reached in the run's better samples: this
/// quantile of per-sample rates (higher is better) ...
inline constexpr double kRateQuantile = 0.9;
/// ... and this quantile of per-sample latencies and costs.
inline constexpr double kCostQuantile = 0.1;

/// User + system CPU time of the whole process, in seconds.
double process_cpu_seconds();
/// CPU time of the calling thread, in seconds.
double thread_cpu_seconds();
/// Peak resident set size of the process, in MiB.
double peak_rss_mib();

/// Median of `values` (copied); 0 for an empty vector.
double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]) of `values` (copied).
double percentile(std::vector<double> values, double q);

/// Log-bucketed histogram of non-negative integer samples (ns): exact
/// below 256, then 128 sub-buckets per power of two (< 1% error).
/// Cheap enough to record every reply of the TCP client.
class log_histogram {
 public:
  log_histogram();
  void record(std::uint64_t value);
  void merge(const log_histogram& other);
  std::uint64_t count() const noexcept { return count_; }
  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  double quantile(double q) const;

 private:
  static std::size_t bucket_of(std::uint64_t value);
  static double bucket_mid(std::size_t bucket);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Table recipe shared by the workloads: the algorithm name and option
/// block, plus the pool every instance starts with.
struct table_recipe {
  std::string algorithm;
  hdhash::table_options options;
  std::vector<hdhash::server_id> servers;

  /// Builds a table and joins `servers` (weight 1).
  std::unique_ptr<hdhash::dynamic_table> build() const;
};

/// Pins the calling thread, for its lifetime, to an allowed CPU that
/// the placement plan of a `pool_workers`-worker pool leaves free, so
/// the load client (or the calling-thread producer) does not share a
/// core with a pinned worker.  Restores the previous affinity on
/// destruction.  Does nothing when no CPU is spare or pinning fails.
class spare_cpu_pin {
 public:
  explicit spare_cpu_pin(std::size_t pool_workers);
  ~spare_cpu_pin();
  spare_cpu_pin(const spare_cpu_pin&) = delete;
  spare_cpu_pin& operator=(const spare_cpu_pin&) = delete;

 private:
  std::vector<unsigned char> previous_;  // saved cpu_set_t bytes
};

/// Highest per-server count divided by the mean over servers with any
/// traffic; 0 for an empty histogram.
template <typename Map>
double peak_to_mean(const Map& load) {
  std::uint64_t peak = 0;
  std::uint64_t total = 0;
  for (const auto& [server, count] : load) {
    peak = count > peak ? count : peak;
    total += count;
  }
  if (load.empty() || total == 0) {
    return 0.0;
  }
  return static_cast<double>(peak) * static_cast<double>(load.size()) /
         static_cast<double>(total);
}

/// One-line host and build stamp (JSON object text): allowed CPUs,
/// active SIMD kernel, arena backing, placement policy, pinned workers,
/// compiler, build type, source identity and seed.
std::string host_stamp(const run_options& options,
                       std::size_t pinned_workers);

/// FNV-1a over 64-bit words: fingerprints generated inputs so the
/// self-tests can tell two seeds' inputs apart.
std::uint64_t fingerprint(const std::vector<std::uint64_t>& words,
                          std::uint64_t state = 0xcbf29ce484222325ULL);

}  // namespace perfbench
