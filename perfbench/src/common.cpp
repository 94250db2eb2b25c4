#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "mem/hugepage_arena.hpp"
#include "runtime/cpu_topology.hpp"
#include "runtime/placement_plan.hpp"
#include "runtime/worker_pool.hpp"
#include "simd/hamming_kernel.hpp"

namespace perfbench {

namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

constexpr std::size_t kExact = 256;
constexpr std::size_t kSubBits = 7;  // 128 sub-buckets per octave
constexpr std::size_t kOctaves = 64 - 8;

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

log_histogram::log_histogram()
    : buckets_(kExact + (kOctaves << kSubBits), 0) {}

std::size_t log_histogram::bucket_of(std::uint64_t value) {
  if (value < kExact) {
    return static_cast<std::size_t>(value);
  }
  const int octave = std::bit_width(value) - 1;  // >= 8
  const std::uint64_t sub =
      (value >> (octave - static_cast<int>(kSubBits))) &
      ((std::uint64_t{1} << kSubBits) - 1);
  const std::size_t bucket =
      kExact + ((static_cast<std::size_t>(octave) - 8) << kSubBits) +
      static_cast<std::size_t>(sub);
  return std::min(bucket, kExact + (kOctaves << kSubBits) - 1);
}

double log_histogram::bucket_mid(std::size_t bucket) {
  if (bucket < kExact) {
    return static_cast<double>(bucket);
  }
  const std::size_t rel = bucket - kExact;
  const int octave = static_cast<int>(rel >> kSubBits) + 8;
  const double sub = static_cast<double>(rel & ((1u << kSubBits) - 1));
  const double width = std::ldexp(1.0, octave - static_cast<int>(kSubBits));
  return std::ldexp(1.0, octave) + (sub + 0.5) * width;
}

void log_histogram::record(std::uint64_t value) {
  ++buckets_[bucket_of(value)];
  ++count_;
}

void log_histogram::merge(const log_histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double log_histogram::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto target = static_cast<std::uint64_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::uint64_t>(target, 1)) {
      return bucket_mid(i);
    }
  }
  return bucket_mid(buckets_.size() - 1);
}

std::unique_ptr<hdhash::dynamic_table> table_recipe::build() const {
  auto table = hdhash::make_table(algorithm, options);
  for (const hdhash::server_id server : servers) {
    table->join(server);
  }
  return table;
}

spare_cpu_pin::spare_cpu_pin(std::size_t pool_workers) {
  const hdhash::runtime::cpu_topology& topo = hdhash::runtime::host_topology();
  const hdhash::runtime::placement_plan plan = hdhash::runtime::plan_placement(
      topo, pool_workers, hdhash::runtime::default_placement_policy());
  std::set<int> taken;
  for (const auto& worker : plan.workers) {
    taken.insert(worker.cpu);
  }
  int spare = -1;
  for (const unsigned cpu : topo.allowed_cpus()) {
    if (taken.count(static_cast<int>(cpu)) == 0) {
      spare = static_cast<int>(cpu);
      break;
    }
  }
  if (spare < 0 || taken.count(-1) > 0) {
    return;  // no spare CPU, or the pool is not pinned at all
  }
  cpu_set_t previous;
  CPU_ZERO(&previous);
  if (pthread_getaffinity_np(pthread_self(), sizeof(previous), &previous) != 0) {
    return;
  }
  cpu_set_t target;
  CPU_ZERO(&target);
  CPU_SET(spare, &target);
  if (pthread_setaffinity_np(pthread_self(), sizeof(target), &target) != 0) {
    return;
  }
  previous_.resize(sizeof(previous));
  std::memcpy(previous_.data(), &previous, sizeof(previous));
}

spare_cpu_pin::~spare_cpu_pin() {
  if (previous_.empty()) {
    return;
  }
  cpu_set_t previous;
  std::memcpy(&previous, previous_.data(), sizeof(previous));
  pthread_setaffinity_np(pthread_self(), sizeof(previous), &previous);
}

std::string host_stamp(const run_options& options,
                       std::size_t pinned_workers) {
  const hdhash::runtime::cpu_topology& topo = hdhash::runtime::host_topology();
  std::string cpus;
  for (const unsigned cpu : topo.allowed_cpus()) {
    if (!cpus.empty()) {
      cpus += ',';
    }
    cpus += std::to_string(cpu);
  }
  const hdhash::mem::arena_registry_stats arenas =
      hdhash::mem::registry_stats();
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"workload\": \"%s\", \"seed\": %llu, \"allowed_cpus\": [%s], "
      "\"physical_cores\": %zu, \"numa_nodes\": %zu, "
      "\"simd_kernel\": \"%s\", \"arena_backing\": \"%s\", "
      "\"placement\": \"%s\", \"pinned_workers\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_commit\": \"%s\", \"source_digest\": \"%s\"}",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), cpus.c_str(),
      topo.physical_cores(), topo.numa_nodes(),
      std::string(hdhash::simd::active_kernel().name).c_str(),
      std::string(hdhash::mem::to_string(arenas.backing)).c_str(),
      std::string(hdhash::runtime::to_string(
                      hdhash::runtime::default_placement_policy()))
          .c_str(),
      pinned_workers, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      options.git_commit.c_str(), options.source_digest.c_str());
  return buffer;
}

std::uint64_t fingerprint(const std::vector<std::uint64_t>& words,
                          std::uint64_t state) {
  for (const std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xff;
      state *= 0x100000001b3ULL;
    }
  }
  return state;
}

}  // namespace perfbench
