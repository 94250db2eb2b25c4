/// Micro-benchmarks (google-benchmark) of the primitives everything else
/// is built from: HDC operations at the paper's d = 10,000, hash
/// functions, basis-set generation and single table lookups — plus the
/// v2 scalar-vs-batch lookup comparison.
///
/// Run with `--batch-json[=PATH]` to skip google-benchmark and emit the
/// scalar-vs-batch comparison as machine-readable JSON (default path
/// BENCH_batch_lookup.json) — the file that seeds the perf trajectory.
/// The JSON records the dispatched SIMD kernel and a per-kernel panel
/// (every compiled-in kernel the CPU supports, measured on the
/// capacity-4096 hd batch path) so runs on different machines stay
/// comparable and scripts/check_bench.py can gate regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/circular.hpp"
#include "core/hd_table.hpp"
#include "emu/generator.hpp"
#include "exp/factory.hpp"
#include "hashing/registry.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/ops.hpp"
#include "hdc/similarity.hpp"
#include "mem/hugepage_arena.hpp"
#include "simd/hamming_kernel.hpp"

namespace {

using namespace hdhash;

constexpr std::size_t kDim = 10'000;

void bm_hypervector_random(benchmark::State& state) {
  xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::hypervector::random(kDim, rng));
  }
}
BENCHMARK(bm_hypervector_random);

void bm_bind(benchmark::State& state) {
  xoshiro256 rng(2);
  const auto a = hdc::hypervector::random(kDim, rng);
  const auto b = hdc::hypervector::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::bind(a, b));
  }
}
BENCHMARK(bm_bind);

void bm_hamming_distance(benchmark::State& state) {
  xoshiro256 rng(3);
  const auto a = hdc::hypervector::random(kDim, rng);
  const auto b = hdc::hypervector::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdc::hamming_distance(a, b));
  }
}
BENCHMARK(bm_hamming_distance);

void bm_item_memory_query(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(4);
  hdc::item_memory memory(kDim);
  for (std::size_t i = 0; i < entries; ++i) {
    memory.insert(i, hdc::hypervector::random(kDim, rng));
  }
  const auto probe = hdc::hypervector::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memory.query(probe));
  }
}
BENCHMARK(bm_item_memory_query)->RangeMultiplier(8)->Range(8, 2048);

void bm_circular_set(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    xoshiro256 rng(5);
    benchmark::DoNotOptimize(circular_set(count, kDim, rng));
  }
}
BENCHMARK(bm_circular_set)->Arg(64)->Arg(1024)->Arg(4096);

void bm_hash(benchmark::State& state, const char* name) {
  const hash64& h = hash_by_name(name);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.hash_u64(++key, 7));
  }
}
BENCHMARK_CAPTURE(bm_hash, fnv1a64, "fnv1a64");
BENCHMARK_CAPTURE(bm_hash, splitmix64, "splitmix64");
BENCHMARK_CAPTURE(bm_hash, murmur3, "murmur3_x64_128");
BENCHMARK_CAPTURE(bm_hash, xxhash64, "xxhash64");
BENCHMARK_CAPTURE(bm_hash, siphash24, "siphash24");

void bm_table_lookup(benchmark::State& state, const char* algorithm) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  table_options options;
  options.hd.dimension = kDim;
  if (options.hd.capacity <= servers) {
    options.hd.capacity = 2 * servers;
  }
  auto table = make_table(algorithm, options);
  workload_config workload;
  workload.initial_servers = servers;
  const generator gen(workload);
  for (const auto id : gen.initial_server_ids()) {
    table->join(id);
  }
  request_id r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->lookup(++r * 0x9e3779b97f4a7c15ULL));
  }
}
BENCHMARK_CAPTURE(bm_table_lookup, modular, "modular")->Arg(512);
BENCHMARK_CAPTURE(bm_table_lookup, consistent, "consistent")
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048);
BENCHMARK_CAPTURE(bm_table_lookup, rendezvous, "rendezvous")
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048);
BENCHMARK_CAPTURE(bm_table_lookup, jump, "jump")->Arg(512);
BENCHMARK_CAPTURE(bm_table_lookup, maglev, "maglev")->Arg(512);
BENCHMARK_CAPTURE(bm_table_lookup, hd, "hd")->Arg(64)->Arg(512);

// --- v2 scalar vs batch lookup -------------------------------------------

constexpr std::size_t kBatchSize = 256;  // the paper's emulator batch

std::unique_ptr<dynamic_table> batch_bench_table(const char* algorithm,
                                                 std::size_t servers,
                                                 std::size_t dim = kDim) {
  table_options options;
  options.hd.dimension = dim;
  if (options.hd.capacity <= servers) {
    options.hd.capacity = 2 * servers;
  }
  auto table = make_table(algorithm, options);
  workload_config workload;
  workload.initial_servers = servers;
  const generator gen(workload);
  for (const auto id : gen.initial_server_ids()) {
    table->join(id);
  }
  return table;
}

std::vector<request_id> batch_bench_requests(std::size_t count) {
  std::vector<request_id> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i] = (i + 1) * 0x9e3779b97f4a7c15ULL;
  }
  return requests;
}

void bm_lookup_scalar_loop(benchmark::State& state, const char* algorithm) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto table = batch_bench_table(algorithm, servers);
  const auto requests = batch_bench_requests(kBatchSize);
  std::vector<server_id> answers(requests.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      answers[i] = table->lookup(requests[i]);
    }
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSize));
}

void bm_lookup_batch(benchmark::State& state, const char* algorithm) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto table = batch_bench_table(algorithm, servers);
  const auto requests = batch_bench_requests(kBatchSize);
  std::vector<server_id> answers(requests.size());
  for (auto _ : state) {
    table->lookup_batch(requests, answers);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatchSize));
}

BENCHMARK_CAPTURE(bm_lookup_scalar_loop, hd, "hd")->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(bm_lookup_batch, hd, "hd")->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(bm_lookup_scalar_loop, hd_hierarchical, "hd-hierarchical")
    ->Arg(512);
BENCHMARK_CAPTURE(bm_lookup_batch, hd_hierarchical, "hd-hierarchical")
    ->Arg(512);
BENCHMARK_CAPTURE(bm_lookup_scalar_loop, consistent, "consistent")->Arg(512);
BENCHMARK_CAPTURE(bm_lookup_batch, consistent, "consistent")->Arg(512);

/// One scalar-vs-batch comparison point, timed directly (no
/// google-benchmark), for the JSON perf record.
struct batch_point {
  const char* algorithm;
  std::size_t servers;
  double scalar_ns_per_lookup;
  double batch_ns_per_lookup;
};

/// Minimum wall time of one timed trial, and trials per body.
constexpr std::chrono::milliseconds kTrialTime{40};
constexpr int kTrials = 5;

/// Times `bodies` (each one call = kBatchSize lookups) in interleaved
/// trials: trial t runs every body in turn, each repeated for at least
/// kTrialTime.  Returns each body's best trial as ns per lookup.
/// Interleaving makes a noisy stretch of a shared host slow every body
/// of a comparison alike, and the minimum wall time keeps a fast body's
/// trial from being a millisecond-long burst.  The minimum over trials
/// measures the machine, not the neighbours, which keeps the perf-gate
/// panels stable enough for a 20% regression threshold.
std::vector<double> best_of_interleaved(
    std::span<const std::function<void()>> bodies) {
  using clock = std::chrono::steady_clock;
  for (const auto& body : bodies) {
    body();  // warm-up call
  }
  std::vector<double> best(bodies.size(),
                           std::numeric_limits<double>::infinity());
  for (int trial = 0; trial < kTrials; ++trial) {
    for (std::size_t b = 0; b < bodies.size(); ++b) {
      std::size_t calls = 0;
      const auto start = clock::now();
      clock::duration elapsed{};
      do {
        bodies[b]();
        ++calls;
        elapsed = clock::now() - start;
      } while (elapsed < kTrialTime);
      best[b] = std::min(
          best[b],
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()) /
              static_cast<double>(calls * kBatchSize));
    }
  }
  return best;
}

batch_point measure_batch_point(const char* algorithm, std::size_t servers) {
  const auto table = batch_bench_table(algorithm, servers);
  const auto requests = batch_bench_requests(kBatchSize);
  std::vector<server_id> answers(requests.size());

  const std::array<std::function<void()>, 2> bodies{
      [&] {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          answers[i] = table->lookup(requests[i]);
        }
        benchmark::DoNotOptimize(answers.data());
      },
      [&] {
        table->lookup_batch(requests, answers);
        benchmark::DoNotOptimize(answers.data());
      }};
  const std::vector<double> best = best_of_interleaved(bodies);
  return batch_point{algorithm, servers, best[0], best[1]};
}

/// One per-kernel measurement of the batch path at one dimension.
struct kernel_point {
  std::string kernel;
  std::size_t dimension;
  double batch_ns_per_lookup;
};

/// Times the hd batch path (capacity-4096 circle, 512 servers) under
/// every compiled-in kernel the CPU supports, at the paper's d = 10,000
/// and at d = 4096 (rows of exactly one Harley–Seal block), with the
/// kernels of one dimension interleaved trial by trial.  Restores
/// auto-dispatch afterwards.
std::vector<kernel_point> measure_kernel_panel(std::size_t servers) {
  const auto requests = batch_bench_requests(kBatchSize);
  std::vector<server_id> answers(requests.size());

  std::vector<kernel_point> points;
  for (const std::size_t dim : {std::size_t{10'000}, std::size_t{4096}}) {
    const auto table = batch_bench_table("hd", servers, dim);
    std::vector<std::string_view> kernels;
    std::vector<std::function<void()>> bodies;
    for (const simd::hamming_kernel* kernel : simd::compiled_kernels()) {
      if (!kernel->supported()) {
        continue;
      }
      kernels.push_back(kernel->name);
      bodies.emplace_back([&, name = kernel->name] {
        simd::set_active_kernel(name);
        table->lookup_batch(requests, answers);
        benchmark::DoNotOptimize(answers.data());
      });
    }
    const std::vector<double> best = best_of_interleaved(bodies);
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      points.push_back(kernel_point{std::string(kernels[k]), dim, best[k]});
    }
  }
  simd::reset_active_kernel();
  return points;
}

int emit_batch_json(const std::string& path) {
  std::vector<batch_point> points;
  points.push_back(measure_batch_point("hd", 64));
  points.push_back(measure_batch_point("hd", 512));
  points.push_back(measure_batch_point("hd-hierarchical", 512));
  points.push_back(measure_batch_point("consistent", 512));
  points.push_back(measure_batch_point("rendezvous", 512));
  const std::vector<kernel_point> panel = measure_kernel_panel(512);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  const std::string kernel_name(simd::active_kernel().name);
  // The backing the measured tables' rows actually landed on (resolved
  // after the panels ran, when every arena exists): trajectories taken
  // on different hosts — hugepage pool here, plain pages on a CI
  // runner — are only comparable when the backing is recorded.
  const std::string backing(
      mem::to_string(mem::registry_stats().backing));
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"scalar_vs_batch_lookup\",\n"
               "  \"batch_size\": %zu,\n"
               "  \"dimension\": %zu,\n"
               "  \"kernel\": \"%s\",\n"
               "  \"memory_backing\": \"%s\",\n"
               "  \"results\": [\n",
               kBatchSize, kDim, kernel_name.c_str(), backing.c_str());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const batch_point& p = points[i];
    std::fprintf(out,
                 "    {\"algorithm\": \"%s\", \"servers\": %zu, "
                 "\"scalar_ns_per_lookup\": %.1f, "
                 "\"batch_ns_per_lookup\": %.1f, "
                 "\"speedup\": %.2f, \"memory_backing\": \"%s\"}%s\n",
                 p.algorithm, p.servers, p.scalar_ns_per_lookup,
                 p.batch_ns_per_lookup,
                 p.scalar_ns_per_lookup / p.batch_ns_per_lookup,
                 backing.c_str(), i + 1 < points.size() ? "," : "");
    std::printf("%-16s k=%-5zu scalar %8.1f ns   batch %8.1f ns   %.2fx\n",
                p.algorithm, p.servers, p.scalar_ns_per_lookup,
                p.batch_ns_per_lookup,
                p.scalar_ns_per_lookup / p.batch_ns_per_lookup);
  }
  // Per-kernel panel: same table, same batch, one entry per compiled-in
  // kernel and dimension — speedup_vs_scalar is machine-portable, which
  // is what the CI perf gate compares.
  const auto scalar_ns_at = [&](std::size_t dim) {
    for (const kernel_point& p : panel) {
      if (p.kernel == "scalar" && p.dimension == dim) {
        return p.batch_ns_per_lookup;
      }
    }
    return 0.0;
  };
  std::fprintf(out,
               "  ],\n"
               "  \"kernel_panel\": {\"algorithm\": \"hd\", "
               "\"capacity\": 4096, \"servers\": 512, \"entries\": [\n");
  for (std::size_t i = 0; i < panel.size(); ++i) {
    const kernel_point& p = panel[i];
    const double scalar_ns = scalar_ns_at(p.dimension);
    const double speedup =
        p.batch_ns_per_lookup > 0.0 ? scalar_ns / p.batch_ns_per_lookup : 0.0;
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"dimension\": %zu, "
                 "\"batch_ns_per_lookup\": %.1f, "
                 "\"speedup_vs_scalar\": %.2f, "
                 "\"memory_backing\": \"%s\"}%s\n",
                 p.kernel.c_str(), p.dimension, p.batch_ns_per_lookup, speedup,
                 backing.c_str(), i + 1 < panel.size() ? "," : "");
    std::printf(
        "kernel %-8s d=%-5zu k=512  batch %8.1f ns   %.2fx vs scalar\n",
        p.kernel.c_str(), p.dimension, p.batch_ns_per_lookup, speedup);
  }
  std::fprintf(out, "  ]}\n}\n");
  std::fclose(out);
  std::printf("active kernel: %s\nwrote %s\n", kernel_name.c_str(),
              path.c_str());
  return 0;
}

/// Registers one google-benchmark entry per compiled-in kernel: a raw
/// 8-probe tile sweep over 512 rows at d = 10,000 — the inner loop of
/// hd_table::decode_slots with the decision logic stripped away, i.e.
/// the kernels' own throughput, comparable across tiers.
void register_kernel_benchmarks() {
  for (const simd::hamming_kernel* kernel : simd::compiled_kernels()) {
    benchmark::RegisterBenchmark(
        (std::string("bm_kernel_tile_sweep/") + std::string(kernel->name))
            .c_str(),
        [kernel](benchmark::State& state) {
          if (!kernel->supported()) {
            state.SkipWithError("kernel not supported on this CPU");
            return;
          }
          constexpr std::size_t kRows = 512;
          xoshiro256 rng(6);
          std::vector<hdc::hypervector> rows;
          rows.reserve(kRows);
          for (std::size_t i = 0; i < kRows; ++i) {
            rows.push_back(hdc::hypervector::random(kDim, rng));
          }
          std::vector<hdc::hypervector> probe_store;
          std::array<const std::uint64_t*, simd::kMaxTile> probes{};
          for (std::size_t t = 0; t < simd::kMaxTile; ++t) {
            probe_store.push_back(hdc::hypervector::random(kDim, rng));
            probes[t] = probe_store.back().words().data();
          }
          const std::size_t words = rows.front().word_count();
          std::array<std::uint64_t, simd::kMaxTile> dist{};
          for (auto _ : state) {
            for (const hdc::hypervector& row : rows) {
              kernel->tile_distance(row.words().data(), probes.data(),
                                    simd::kMaxTile, words, dist.data());
              benchmark::DoNotOptimize(dist.data());
            }
          }
          state.SetItemsProcessed(
              static_cast<std::int64_t>(state.iterations()) *
              static_cast<std::int64_t>(kRows * simd::kMaxTile));
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch-json", 12) == 0 &&
        (argv[i][12] == '\0' || argv[i][12] == '=')) {
      return emit_batch_json(argv[i][12] == '='
                                 ? argv[i] + 13
                                 : "BENCH_batch_lookup.json");
    }
  }
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
