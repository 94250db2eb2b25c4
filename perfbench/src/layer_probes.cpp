#include "layer_probes.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>

#include "core/encoder.hpp"
#include "emu/snapshot.hpp"
#include "emu/stream_router.hpp"
#include "hashing/registry.hpp"
#include "hashing/splitmix_hash.hpp"
#include "mem/hugepage_arena.hpp"
#include "net/protocol.hpp"
#include "runtime/cpu_topology.hpp"
#include "runtime/worker_pool.hpp"
#include "simd/hamming_kernel.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using hdhash::request_id;
using hdhash::server_id;

constexpr double kProbeSeconds = 0.25;
constexpr std::size_t kWireChunk = 64 * 1024;
// The pipelines' request partition salt (stream_router and
// sharded_emulator share it).
constexpr std::uint64_t kPartitionSeed = 0x5A4D'ED01;

/// Repeats `body` until it has run at least `rounds` times and for
/// kProbeSeconds, whichever takes longer.
template <typename Body>
void repeat(std::size_t rounds, Body&& body) {
  const auto start = steady::now();
  for (std::size_t i = 0; i < rounds || seconds_since(start) < kProbeSeconds;
       ++i) {
    body(i);
  }
}

/// wire_parser::feed/next over the ids as ROUTE lines, in socket-sized
/// chunks; encode_route_reply over the answers.
void probe_wire(const probe_inputs& in) {
  std::string wire;
  for (const request_id id : in.ids) {
    wire += "ROUTE " + std::to_string(id) + "\r\n";
  }
  repeat(3, [&](std::size_t) {
    hdhash::net::wire_parser parser;
    hdhash::net::wire_command command;
    for (std::size_t pos = 0; pos < wire.size(); pos += kWireChunk) {
      const std::string_view chunk(
          wire.data() + pos, std::min(kWireChunk, wire.size() - pos));
      trace::scope span("net.parse");
      std::uint64_t commands = 0;
      parser.feed(chunk);
      while (parser.next(command) == hdhash::net::parse_result::command) {
        ++commands;
      }
      span.set_units(commands);
    }
  });
  std::string out;
  out.reserve(64 * 1024);
  repeat(3, [&](std::size_t) {
    for (std::size_t pos = 0; pos < in.answers.size(); pos += 4096) {
      const std::size_t end = std::min(in.answers.size(), pos + 4096);
      trace::scope span("net.encode", end - pos);
      out.clear();
      for (std::size_t i = pos; i < end; ++i) {
        hdhash::net::encode_route_reply(out, in.answers[i]);
      }
    }
  });
}

/// A standalone stream_router session at the workload's batch shape:
/// one batch in flight, timed from submit to on_complete.
void probe_router(const probe_inputs& in) {
  hdhash::runtime::worker_pool pool(in.shards,
                                    hdhash::runtime::default_placement_policy());
  hdhash::stream_router::config config;
  config.shards = in.shards;
  config.sessions = 1;
  hdhash::stream_router router(in.recipe->build(), pool, 0, config);
  router.start();
  hdhash::stream_router::session session = router.open_session(0);
  const std::size_t batches = std::max<std::size_t>(1, in.ids.size() / in.batch);
  repeat(64, [&](std::size_t i) {
    const std::size_t begin = (i % batches) * in.batch;
    const std::size_t end = std::min(in.ids.size(), begin + in.batch);
    auto batch = std::make_shared<hdhash::stream_router::route_batch>();
    batch->requests.assign(in.ids.begin() + static_cast<std::ptrdiff_t>(begin),
                           in.ids.begin() + static_cast<std::ptrdiff_t>(end));
    auto completed = std::make_shared<std::atomic<bool>>(false);
    batch->on_complete = [completed] {
      completed->store(true, std::memory_order_release);
    };
    trace::scope span("emu.router.batch", end - begin);
    session.submit(batch);
    while (!completed->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  router.stop();
}

/// snapshot_publisher join/leave/current().  Replays the workload's
/// membership events when it has any, else leaves and rejoins members.
/// Every published epoch is kept alive until the end, as the sharded
/// emulator's pre-scan keeps a job's epochs.
std::vector<double> probe_publisher(const probe_inputs& in) {
  hdhash::snapshot_publisher publisher(in.recipe->build());
  std::vector<std::shared_ptr<const hdhash::table_snapshot>> epochs;
  std::vector<double> marginal_bytes;
  auto publish = [&] {
    trace::scope span("emu.snapshot.publish", 1);
    epochs.push_back(publisher.current());
  };
  publish();
  if (!in.churn.empty()) {
    bool dirty = false;
    for (const hdhash::event& e : in.churn) {
      if (e.kind == hdhash::event_kind::request) {
        if (dirty) {
          publish();
          marginal_bytes.push_back(
              static_cast<double>(epochs.back()->marginal_bytes()));
          dirty = false;
        }
        continue;
      }
      if (e.kind == hdhash::event_kind::join) {
        trace::scope span("core.join", 1);
        publisher.join(e.id, e.weight);
      } else {
        trace::scope span("core.leave", 1);
        publisher.leave(e.id);
      }
      dirty = true;
    }
    return marginal_bytes;
  }
  const std::vector<server_id> members = in.recipe->servers;
  hdhash::xoshiro256 rng(0x9ab1e);
  repeat(32, [&](std::size_t) {
    const server_id victim =
        members[hdhash::uniform_below(rng, members.size())];
    {
      trace::scope span("core.leave", 1);
      publisher.leave(victim);
    }
    publish();
    marginal_bytes.push_back(
        static_cast<double>(epochs.back()->marginal_bytes()));
    {
      trace::scope span("core.join", 1);
      publisher.join(victim);
    }
    publish();
    marginal_bytes.push_back(
        static_cast<double>(epochs.back()->marginal_bytes()));
  });
  return marginal_bytes;
}

/// active_kernel().tile_distance over 512 rows of the workload's
/// dimension with an 8-probe tile.
void probe_simd(const probe_inputs& in) {
  const std::size_t words = (in.recipe->options.hd.dimension + 63) / 64;
  constexpr std::size_t kRows = 512;
  std::vector<std::uint64_t> rows(kRows * words);
  std::vector<std::uint64_t> probes(hdhash::simd::kMaxTile * words);
  hdhash::xoshiro256 rng(0x51bd);
  for (std::uint64_t& word : rows) {
    word = rng();
  }
  for (std::uint64_t& word : probes) {
    word = rng();
  }
  const std::uint64_t* tile[hdhash::simd::kMaxTile];
  for (std::size_t t = 0; t < hdhash::simd::kMaxTile; ++t) {
    tile[t] = probes.data() + t * words;
  }
  const hdhash::simd::hamming_kernel& kernel = hdhash::simd::active_kernel();
  std::uint64_t dist[hdhash::simd::kMaxTile] = {};
  std::uint64_t sink = 0;
  repeat(16, [&](std::size_t) {
    trace::scope span("simd.tile_sweep", kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      kernel.tile_distance(rows.data() + r * words, tile,
                           hdhash::simd::kMaxTile, words, dist);
      sink += dist[r % hdhash::simd::kMaxTile];
    }
  });
  volatile std::uint64_t keep = sink;
  (void)keep;
}

/// Distinct circle slots per batch over the batch size: the ids are
/// split by shard the way the pipelines partition them and cut into
/// batches of the workload's shape, on a circle of the table's
/// capacity.
double probe_slots(const probe_inputs& in) {
  const hdhash::table_options& options = in.recipe->options;
  const hdhash::circle_encoder encoder(
      options.hd.capacity, options.hd.dimension,
      hdhash::hash_by_name(options.hash_name), options.hd.seed,
      options.hd.policy);
  std::vector<std::vector<request_id>> per_shard(in.shards);
  for (const request_id id : in.ids) {
    per_shard[hdhash::splitmix_hash::mix(id ^ kPartitionSeed) % in.shards]
        .push_back(id);
  }
  double unique = 0.0;
  double total = 0.0;
  std::unordered_set<std::size_t> slots;
  for (const auto& ids : per_shard) {
    for (std::size_t begin = 0; begin + in.batch <= ids.size();
         begin += in.batch) {
      slots.clear();
      for (std::size_t i = begin; i < begin + in.batch; ++i) {
        slots.insert(encoder.slot_of(ids[i]));
      }
      unique += static_cast<double>(slots.size());
      total += static_cast<double>(in.batch);
    }
  }
  return total > 0.0 ? unique / total : 0.0;
}

/// hash64 over the workload's request ids (the tables' h(·)).
void probe_hash(const probe_inputs& in) {
  const hdhash::hash64& hash = hdhash::hash_by_name(in.recipe->options.hash_name);
  std::uint64_t sink = 0;
  repeat(3, [&](std::size_t) {
    for (std::size_t pos = 0; pos < in.ids.size(); pos += 4096) {
      const std::size_t end = std::min(in.ids.size(), pos + 4096);
      trace::scope span("hashing.hash64", end - pos);
      for (std::size_t i = pos; i < end; ++i) {
        sink += hash.hash_u64(in.ids[i], in.recipe->options.hd.seed);
      }
    }
  });
  volatile std::uint64_t keep = sink;
  (void)keep;
}

double per_unit(const std::map<std::string, trace::summary>& spans,
                const char* name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.units == 0) {
    return 0.0;
  }
  return it->second.total_ns / static_cast<double>(it->second.units);
}

double duration_percentile(const std::map<std::string, trace::summary>& spans,
                           const char* name, double q) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : percentile(it->second.durations_ns, q);
}

}  // namespace

void per_layer_metrics(const probe_inputs& in,
                       const traced_observations& observed, run_result& out) {
  // The workload's own spans (table.*) are already recorded; the probes
  // add theirs.
  trace::set_enabled(true);
  probe_wire(in);
  probe_router(in);
  const std::vector<double> marginal = probe_publisher(in);
  probe_simd(in);
  probe_hash(in);
  trace::set_enabled(false);
  const double unique_slot_frac = probe_slots(in);
  const auto spans = trace::summarize();

  out.add("net.parse_ns_per_cmd", per_unit(spans, "net.parse"), "ns");
  out.add("net.encode_ns_per_reply", per_unit(spans, "net.encode"), "ns");
  out.add("net.requests_per_batch", observed.requests_per_batch, "count");
  out.add("net.client_lag_p99_us", observed.client_lag_p99_us, "us");
  out.add("emu.router.batch_us_p50",
          duration_percentile(spans, "emu.router.batch", 0.5) / 1e3, "us");
  out.add("emu.router.batch_us_p99",
          duration_percentile(spans, "emu.router.batch", 0.99) / 1e3, "us");
  out.add("emu.snapshot.publish_us_p50",
          duration_percentile(spans, "emu.snapshot.publish", 0.5) / 1e3, "us");
  out.add("emu.snapshot.publish_us_p99",
          duration_percentile(spans, "emu.snapshot.publish", 0.99) / 1e3, "us");
  const double publishes =
      observed.census != nullptr
          ? static_cast<double>(observed.census->published.load())
          : 0.0;
  out.add("emu.snapshot.publishes_per_kreq",
          observed.traced_requests == 0
              ? 0.0
              : publishes * 1e3 / static_cast<double>(observed.traced_requests),
          "1/kreq");
  out.add("emu.snapshot.marginal_kib", median(marginal) / 1024.0, "KiB");
  out.add("emu.snapshots_live_peak",
          observed.census != nullptr
              ? static_cast<double>(observed.census->peak.load())
              : 0.0,
          "count");
  out.add("emu.shard_busy_frac", observed.shard_busy_frac, "ratio");
  out.add("core.join_us_p50", duration_percentile(spans, "core.join", 0.5) / 1e3,
          "us");
  out.add("core.leave_us_p50",
          duration_percentile(spans, "core.leave", 0.5) / 1e3, "us");
  out.add("table.lookup_ns_per_req", per_unit(spans, "table.lookup_batch"),
          "ns");
  const double row_ns = per_unit(spans, "simd.tile_sweep");
  const double row_bytes =
      static_cast<double>((in.recipe->options.hd.dimension + 63) / 64 * 8);
  out.add("simd.tile_ns_per_row", row_ns, "ns");
  out.add("simd.gbytes_per_s", row_ns > 0.0 ? row_bytes / row_ns : 0.0,
          "GB/s");
  out.add("hdc.unique_slot_frac", unique_slot_frac, "ratio");
  out.add("hashing.ns_per_key", per_unit(spans, "hashing.hash64"), "ns");

  const hdhash::mem::arena_registry_stats arenas =
      hdhash::mem::registry_stats();
  std::uint64_t allocations = 0;
  if (arenas.arenas > 0) {
    const std::size_t nodes = hdhash::runtime::host_topology().numa_nodes();
    for (std::size_t node = 0; node < std::max<std::size_t>(nodes, 1); ++node) {
      allocations +=
          hdhash::mem::node_arena(static_cast<int>(node))->stats().allocations;
    }
  }
  out.add("mem.arena_resident_mib",
          static_cast<double>(arenas.reserved_bytes) / (1024.0 * 1024.0),
          "MiB");
  out.add("mem.recycled_frac",
          allocations == 0 ? 0.0
                           : static_cast<double>(arenas.recycled) /
                                 static_cast<double>(allocations),
          "ratio");
  out.add("trace.overhead_pct",
          observed.traced_rps > 0.0
              ? (observed.untraced_rps / observed.traced_rps - 1.0) * 100.0
              : 0.0,
          "%");
  out.note("trace spans dropped: " + std::to_string(trace::dropped()));
}

}  // namespace perfbench
