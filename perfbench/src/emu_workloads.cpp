/// emu-churn and emu-faults: the in-process sharded pipeline.
///
/// A run is a sequence of jobs.  Each job is a fresh sharded_emulator
/// (3 shards plus the calling-thread producer, snapshot mode) over a
/// fresh generator stream whose join burst is applied in the table
/// factory, so the timed run() call sees only the live stream.  After
/// each job, outside the timed region, the merged load histogram is
/// compared with a single-table reference.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/hd_table.hpp"
#include "emu/emulator.hpp"
#include "emu/generator.hpp"
#include "emu/sharded_emulator.hpp"
#include "fault/injector.hpp"
#include "hashing/splitmix_hash.hpp"
#include "layer_probes.hpp"
#include "trace.hpp"
#include "traced_table.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hdhash::request_id;
using hdhash::server_id;

constexpr int kSetups = 3;
constexpr std::size_t kShards = 3;
constexpr double kLatencyWindowSeconds = 0.25;
/// load_peak_to_mean is the median over the first kBalanceJobs jobs, so
/// it depends on the seed only, not on how many jobs a run fits in.
constexpr std::size_t kBalanceJobs = 64;

struct emu_shape {
  table_recipe recipe;  ///< servers are filled in per job
  std::size_t servers = 0;
  std::size_t job_requests = 0;
  double churn_rate = 0.0;
  bool shadow = false;
  std::size_t flips = 0;  ///< SEU bit flips injected per job
};

struct job {
  table_recipe recipe;              ///< with this job's initial pool
  std::vector<hdhash::event> events;  ///< the live stream (no join burst)
};

job make_job(const emu_shape& shape, std::uint64_t job_seed) {
  hdhash::workload_config config;
  config.initial_servers = shape.servers;
  config.request_count = shape.job_requests;
  config.churn_rate = shape.churn_rate;
  config.seed = job_seed;
  const hdhash::generator gen(config);
  job j;
  j.recipe = shape.recipe;
  j.recipe.servers = gen.initial_server_ids();
  std::vector<hdhash::event> all = gen.generate();
  j.events.assign(all.begin() + static_cast<std::ptrdiff_t>(shape.servers),
                  all.end());
  return j;
}

struct job_result {
  hdhash::sharded_report report;
  std::uint64_t requests = 0;  ///< requests in the stream
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t failed = 0;
  std::size_t pinned_workers = 0;
};

/// Answers of the single (corrupted) producer table for every request
/// of the stream.  Enc has only n distinct outputs, so hd tables are
/// resolved once per circle slot; other algorithms answer directly.
std::map<server_id, std::uint64_t> reference_load(
    const hdhash::dynamic_table& table, const std::vector<hdhash::event>& events) {
  std::vector<request_id> ids;
  ids.reserve(events.size());
  for (const hdhash::event& e : events) {
    if (e.kind == hdhash::event_kind::request) {
      ids.push_back(e.id);
    }
  }
  std::map<server_id, std::uint64_t> load;
  if (const auto* hd = dynamic_cast<const hdhash::hd_table*>(&table)) {
    std::vector<std::optional<server_id>> by_slot(hd->encoder().size());
    for (const request_id id : ids) {
      std::optional<server_id>& answer = by_slot[hd->encoder().slot_of(id)];
      if (!answer) {
        answer = table.lookup(id);
      }
      ++load[*answer];
    }
    return load;
  }
  for (const server_id answer : table.lookup_batch(ids)) {
    ++load[answer];
  }
  return load;
}

/// Wrong answers implied by two load histograms: answers that moved
/// between servers plus answers missing or extra.
std::uint64_t histogram_errors(const std::map<server_id, std::uint64_t>& want,
                               const std::map<server_id, std::uint64_t>& got) {
  std::uint64_t diff = 0;
  std::int64_t total = 0;
  std::map<server_id, std::int64_t> delta;
  for (const auto& [server, count] : want) {
    delta[server] += static_cast<std::int64_t>(count);
    total += static_cast<std::int64_t>(count);
  }
  for (const auto& [server, count] : got) {
    delta[server] -= static_cast<std::int64_t>(count);
    total -= static_cast<std::int64_t>(count);
  }
  for (const auto& [server, d] : delta) {
    diff += static_cast<std::uint64_t>(d < 0 ? -d : d);
  }
  const auto missing = static_cast<std::uint64_t>(total < 0 ? -total : total);
  return (diff + missing) / 2;
}

job_result run_job(const emu_shape& shape, const job& j,
                   std::uint64_t job_seed,
                   const std::shared_ptr<snapshot_census>& census,
                   std::uint64_t& wrong_to_inject) {
  hdhash::sharded_config config;
  config.shards = kShards;
  config.shadow = shape.shadow;
  if (shape.flips > 0) {
    const std::size_t flips = shape.flips;
    config.corrupt = [flips, job_seed](hdhash::dynamic_table& table,
                                       std::size_t) {
      hdhash::bit_flip_injector injector(job_seed ^ 0xf1195);
      injector.inject_random(table, flips);
    };
  }
  const table_recipe& recipe = j.recipe;
  hdhash::sharded_emulator emulator(
      [&recipe, &census](std::size_t) -> std::unique_ptr<hdhash::dynamic_table> {
        auto table = recipe.build();
        if (census) {
          return std::make_unique<traced_table>(std::move(table), census);
        }
        return table;
      },
      config);

  job_result r;
  const double cpu0 = process_cpu_seconds();
  const auto start = steady::now();
  r.report = emulator.run(j.events);
  r.wall_seconds = seconds_since(start);
  r.cpu_seconds = process_cpu_seconds() - cpu0;
  for (const hdhash::event& e : j.events) {
    r.requests += e.kind == hdhash::event_kind::request ? 1 : 0;
  }
  for (const auto& worker : r.report.workers) {
    r.pinned_workers += worker.pinned ? 1 : 0;
  }

  // Outside the timed region: the single-table reference.
  std::map<server_id, std::uint64_t> got(r.report.merged.load.begin(),
                                         r.report.merged.load.end());
  if (wrong_to_inject > 0 && !got.empty()) {
    const std::uint64_t moved = std::min(wrong_to_inject, got.begin()->second);
    got.begin()->second -= moved;
    got[got.begin()->first ^ 1] += moved;
    wrong_to_inject -= moved;
  }
  std::map<server_id, std::uint64_t> want;
  if (shape.churn_rate > 0.0) {
    const auto table = recipe.build();
    hdhash::emulator reference(*table, config.buffer_capacity);
    reference.set_timing(false);
    const hdhash::run_stats stats = reference.run(j.events);
    want.insert(stats.load.begin(), stats.load.end());
  } else {
    want = reference_load(unwrap(emulator.table(0)), j.events);
  }
  r.failed = histogram_errors(want, got) +
             (r.report.merged.requests == r.requests ? 0 : 1);
  return r;
}

/// Job-latency percentile q within each kLatencyWindowSeconds window
/// (jobs placed by when they ended), then kCostQuantile over the
/// windows, so a stall of the host moves a few windows, not the result.
double windowed_percentile(const std::vector<double>& latencies,
                           const std::vector<double>& ends, double q) {
  std::vector<double> values;
  std::vector<double> window;
  double window_end = kLatencyWindowSeconds;
  for (std::size_t i = 0; i <= latencies.size(); ++i) {
    if (i == latencies.size() || ends[i] >= window_end) {
      if (!window.empty()) {
        values.push_back(percentile(window, q));
        window.clear();
      }
      if (i == latencies.size()) {
        break;
      }
      while (ends[i] >= window_end) {
        window_end += kLatencyWindowSeconds;
      }
    }
    window.push_back(latencies[i]);
  }
  return percentile(values, kCostQuantile);
}

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index) {
  return hdhash::splitmix_hash::mix(seed * 0x9e3779b97f4a7c15ULL + index);
}

run_result run_emu(const run_options& options, const emu_shape& shape) {
  // The shard workers are pinned; the calling-thread producer gets a
  // core of its own.
  const spare_cpu_pin pin(kShards);
  run_result result;
  std::uint64_t wrong_to_inject = options.wrong_answers;
  std::uint64_t next_job = 0;

  // Set-up: the first job's stream, its tables and emulator, and one
  // untimed warm-up job; repeated and the median reported.
  std::vector<double> setups;
  std::vector<std::uint64_t> inputs;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = steady::now();
    const std::uint64_t s = job_seed(options.seed, next_job++);
    const job j = make_job(shape, s);
    std::uint64_t none = 0;
    const job_result warm = run_job(shape, j, s, nullptr, none);
    setups.push_back(seconds_since(start));
    result.attempted += warm.requests;
    result.failed += warm.failed;
    result.mismatched += warm.report.merged.mismatches;
    if (i == 0) {
      for (const hdhash::event& e : j.events) {
        inputs.push_back(e.id);
      }
      inputs.insert(inputs.end(), j.recipe.servers.begin(),
                    j.recipe.servers.end());
    }
  }
  result.note("inputs_fingerprint " + std::to_string(fingerprint(inputs)));

  struct phase {
    std::vector<double> rates;
    std::vector<double> latencies_us;
    std::vector<double> ends_s;  ///< job end, seconds into the phase
    std::vector<double> peak_to_mean;
    double wall = 0.0;
    std::vector<double> cpu_us_per_req;
    double busy_ns = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t mismatched = 0;
    std::size_t pinned = 0;
  };
  // Jobs run until `seconds` have passed.  With a census, every other
  // job runs on traced tables with span recording on, so the untraced
  // and traced halves see the same drift over the run.
  std::optional<job> first_job;
  auto run_phase = [&](double seconds,
                       const std::shared_ptr<snapshot_census>& census) {
    std::array<phase, 2> phases;  // [untraced, traced]
    const auto start = steady::now();
    for (std::size_t i = 0; phases[0].rates.size() < kBalanceJobs ||
                            seconds_since(start) < seconds;
         ++i) {
      const bool traced = census != nullptr && i % 2 == 1;
      phase& p = phases[traced ? 1 : 0];
      const std::uint64_t s = job_seed(options.seed, next_job++);
      job j = make_job(shape, s);
      trace::set_enabled(traced);
      const job_result r = run_job(shape, j, s, traced ? census : nullptr,
                                   wrong_to_inject);
      trace::set_enabled(false);
      p.rates.push_back(static_cast<double>(r.requests) / r.wall_seconds);
      p.latencies_us.push_back(r.wall_seconds * 1e6);
      p.ends_s.push_back(seconds_since(start));
      if (p.peak_to_mean.size() < kBalanceJobs) {
        p.peak_to_mean.push_back(peak_to_mean(r.report.merged.load));
      }
      p.wall += r.wall_seconds;
      p.cpu_us_per_req.push_back(r.cpu_seconds * 1e6 /
                                 static_cast<double>(r.requests));
      p.requests += r.report.merged.requests;
      p.batches += r.report.merged.batches;
      p.mismatched += r.report.merged.mismatches;
      p.pinned = r.pinned_workers;
      for (const hdhash::run_stats& shard : r.report.per_shard) {
        p.busy_ns += shard.total_request_ns;
      }
      result.attempted += r.requests;
      result.failed += r.failed;
      result.mismatched += r.report.merged.mismatches;
      if (!first_job) {
        first_job = std::move(j);
      }
    }
    return phases;
  };

  std::shared_ptr<snapshot_census> census;
  if (options.trace) {
    census = std::make_shared<snapshot_census>();
    trace::clear();
  }
  const auto [m, t] = run_phase(options.seconds, census);
  result.pinned_workers = m.pinned;
  result.note("jobs " + std::to_string(m.rates.size() + t.rates.size()) +
              " of " + std::to_string(shape.job_requests) + " requests, " +
              std::to_string(m.requests + t.requests) + " requests timed");
  result.note("mismatch_frac " +
              std::to_string(static_cast<double>(m.mismatched + t.mismatched) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, m.requests + t.requests))) +
              " ratio");

  if (!options.trace) {
    result.add("route_rps", percentile(m.rates, kRateQuantile), "1/s");
    result.add("route_p50_us",
               windowed_percentile(m.latencies_us, m.ends_s, 0.5), "us");
    result.add("route_p99_us",
               windowed_percentile(m.latencies_us, m.ends_s, 0.99), "us");
    result.add("setup_s", median(setups), "s");
    result.add("cpu_us_per_req", percentile(m.cpu_us_per_req, kCostQuantile),
               "us");
    result.add("rss_peak_mib", peak_rss_mib(), "MiB");
    result.add("load_peak_to_mean", median(m.peak_to_mean), "ratio");
    return result;
  }

  traced_observations observed;
  observed.untraced_rps = percentile(m.rates, kRateQuantile);
  observed.traced_rps = percentile(t.rates, kRateQuantile);
  observed.requests_per_batch =
      static_cast<double>(m.requests) /
      static_cast<double>(std::max<std::uint64_t>(1, m.batches));
  observed.shard_busy_frac =
      m.busy_ns / (static_cast<double>(kShards) * m.wall * 1e9);
  observed.traced_requests = t.requests;
  observed.census = census.get();

  std::vector<request_id> ids;
  for (const hdhash::event& e : first_job->events) {
    if (e.kind == hdhash::event_kind::request) {
      ids.push_back(e.id);
    }
  }
  const std::vector<server_id> answers =
      first_job->recipe.build()->lookup_batch(ids);
  std::vector<hdhash::event> churn;
  if (shape.churn_rate > 0.0) {
    churn = first_job->events;
  }
  probe_inputs in;
  in.recipe = &first_job->recipe;
  in.ids = ids;
  in.answers = answers;
  in.shards = kShards;
  in.batch = 256;
  in.churn = churn;
  per_layer_metrics(in, observed, result);
  return result;
}

}  // namespace

run_result run_emu_churn(const run_options& options) {
  emu_shape shape;
  shape.recipe.algorithm = "hd-hierarchical";
  shape.recipe.options.hd.capacity = 512;
  shape.recipe.options.hd.slot_cache = true;
  shape.servers = 128;
  shape.job_requests = 50'000;
  shape.churn_rate = 0.01;
  return run_emu(options, shape);
}

run_result run_emu_faults(const run_options& options) {
  emu_shape shape;
  shape.recipe.algorithm = options.fault_algorithm;
  shape.recipe.options.hd.dimension = 10'000;
  shape.recipe.options.hd.capacity = 768;
  shape.recipe.options.hd.slot_cache = false;
  shape.servers = 512;
  shape.job_requests = 10'000;
  shape.shadow = true;
  shape.flips = 10;
  return run_emu(options, shape);
}

}  // namespace perfbench
