/// tcp-steady: an in-process net_server on loopback (hd-hierarchical
/// with the slot cache, 128 servers, one io thread, two shards) driven
/// by the single-thread multiplexing client over four connections.
/// Phase A is a saturating closed loop (route_rps); phase B an open loop
/// at a fixed offered rate (latency from due time).
#include <map>
#include <memory>
#include <stdexcept>

#include "emu/generator.hpp"
#include "layer_probes.hpp"
#include "net/server.hpp"
#include "runtime/worker_pool.hpp"
#include "tcp_client.hpp"
#include "trace.hpp"
#include "traced_table.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kServers = 128;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kWindow = 128;
constexpr std::size_t kRequestsPerConnection = std::size_t{1} << 18;
/// Offered rate of the open-loop phase: about a quarter of the
/// closed-loop rate on a 4-core host.  Open-loop writes are small, so
/// the server sees small batches and saturates well below the
/// closed-loop rate; at 1.1M req/s runs already showed multi-ms stalls.
constexpr double kOpenLoopRate = 7e5;
/// Closed-loop rate windows and open-loop latency windows.
constexpr double kSampleSeconds = 0.1;
constexpr double kLatencySampleSeconds = 0.1;
constexpr double kWarmupSeconds = 0.3;
constexpr int kSetups = 3;

/// Server ids 1..128, as the net front-end bench joins them: the seed
/// varies the request ids only, so the load spread of one run is not
/// dominated by where 128 random ids happen to fall.
table_recipe make_recipe() {
  table_recipe recipe;
  recipe.algorithm = "hd-hierarchical";
  recipe.options.hd.capacity = 512;
  recipe.options.hd.slot_cache = true;
  for (std::size_t i = 1; i <= kServers; ++i) {
    recipe.servers.push_back(static_cast<hdhash::server_id>(i));
  }
  return recipe;
}

/// Uniform request ids from the emulator's generator, split into one
/// ring per connection, with reference answers from lookup_batch on a
/// table built the same way.
std::vector<request_stream> make_streams(const table_recipe& recipe,
                                         std::uint64_t seed) {
  hdhash::workload_config config;
  config.initial_servers = 0;
  config.request_count = kConnections * kRequestsPerConnection;
  config.seed = seed ^ 0x7c9;
  const std::vector<hdhash::event> events =
      hdhash::generator(config).generate();
  const auto reference = recipe.build();
  std::vector<request_stream> streams(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    request_stream& s = streams[c];
    s.ids.reserve(kRequestsPerConnection);
    for (std::size_t i = 0; i < kRequestsPerConnection; ++i) {
      s.ids.push_back(events[c * kRequestsPerConnection + i].id);
    }
    s.expected = reference->lookup_batch(s.ids);
    s.encode();
  }
  return streams;
}

/// One started server with connected, warmed-up clients.
struct tcp_session {
  std::vector<request_stream> streams;
  std::unique_ptr<hdhash::net::net_server> server;
  std::unique_ptr<multiplex_client> client;
  phase_report warmup;
};

tcp_session set_up(const table_recipe& recipe, std::uint64_t seed,
                   std::shared_ptr<snapshot_census> census) {
  tcp_session session;
  session.streams = make_streams(recipe, seed);
  hdhash::net::server_config config;
  config.io_threads = 1;
  config.shards = 2;
  session.server = std::make_unique<hdhash::net::net_server>(
      [recipe, census]() -> std::unique_ptr<hdhash::dynamic_table> {
        auto table = hdhash::make_table(recipe.algorithm, recipe.options);
        if (census) {
          return std::make_unique<traced_table>(std::move(table), census);
        }
        return table;
      },
      config);
  session.server->start();
  for (const hdhash::server_id server : recipe.servers) {
    session.server->router().join(server);
  }
  session.client = std::make_unique<multiplex_client>(session.server->port(),
                                                      session.streams);
  session.warmup = session.client->closed_loop(kWarmupSeconds, kWindow,
                                               kSampleSeconds);
  return session;
}

struct tcp_measurement {
  phase_report closed;
  phase_report open;

  std::uint64_t replied() const { return closed.replied + open.replied; }
};

tcp_measurement measure(tcp_session& session, double seconds) {
  tcp_measurement m;
  m.closed = session.client->closed_loop(seconds / 2, kWindow, kSampleSeconds);
  m.open = session.client->open_loop(seconds / 2, kOpenLoopRate,
                                     kLatencySampleSeconds);
  return m;
}

void account(run_result& result, const phase_report& phase) {
  result.attempted += phase.sent;
  result.failed += phase.failed();
}

/// Latency quantile q of each open-loop window, then kCostQuantile over
/// the windows: a stall of the whole host moves a few windows, not the
/// result.
double windowed_quantile_us(const phase_report& open, double q) {
  std::vector<double> values;
  for (const log_histogram& window : open.latency_windows) {
    if (window.count() > 0) {
      values.push_back(window.quantile(q) / 1e3);
    }
  }
  return percentile(values, kCostQuantile);
}

/// Server CPU per reply: each phase's kCostQuantile over its windows,
/// weighted by the phase's replies.
double cpu_us_per_reply(const tcp_measurement& m) {
  const double closed = percentile(m.closed.window_server_cpu_us, kCostQuantile);
  const double open = percentile(m.open.window_server_cpu_us, kCostQuantile);
  return (closed * static_cast<double>(m.closed.replied) +
          open * static_cast<double>(m.open.replied)) /
         static_cast<double>(m.replied());
}

std::size_t probe_pinned_workers(std::size_t workers) {
  const hdhash::runtime::worker_pool pool(
      workers, hdhash::runtime::default_placement_policy());
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pinned += pool.info(i).pinned ? 1 : 0;
  }
  return pinned;
}

}  // namespace

run_result run_tcp_steady(const run_options& options) {
  if (!hdhash::net::net_server::supported()) {
    throw std::runtime_error("tcp-steady needs the epoll reactor");
  }
  // The server's pool takes io + shard workers; the client gets a core
  // of its own.
  const spare_cpu_pin pin(3);
  run_result result;
  const table_recipe recipe = make_recipe();
  result.pinned_workers = probe_pinned_workers(3);

  std::vector<double> setups;
  tcp_session session;
  for (int i = 0; i < kSetups; ++i) {
    if (session.server) {
      session.client.reset();
      session.server->stop();
      session = tcp_session{};
    }
    const auto start = steady::now();
    session = set_up(recipe, options.seed, nullptr);
    setups.push_back(seconds_since(start));
    account(result, session.warmup);
  }
  session.client->inject_wrong_answers(options.wrong_answers);

  std::map<hdhash::server_id, std::uint64_t> load;
  std::vector<hdhash::request_id> ids;
  std::vector<hdhash::server_id> answers;
  for (const request_stream& s : session.streams) {
    for (const hdhash::server_id answer : s.expected) {
      ++load[answer];
    }
    ids.insert(ids.end(), s.ids.begin(), s.ids.end());
    answers.insert(answers.end(), s.expected.begin(), s.expected.end());
  }
  result.note("inputs_fingerprint " +
              std::to_string(fingerprint(recipe.servers, fingerprint(ids))));

  if (!options.trace) {
    const tcp_measurement m = measure(session, options.seconds);
    account(result, m.closed);
    account(result, m.open);
    session.client.reset();
    session.server->stop();
    result.note("closed loop: " + std::to_string(m.closed.replied) +
                " replies in " + std::to_string(m.closed.seconds) + " s, " +
                std::to_string(m.closed.window_rates.size()) + " windows");
    result.note("open loop: " + std::to_string(m.open.replied) +
                " replies at " + std::to_string(kOpenLoopRate) +
                " req/s offered, send lag p99 " +
                std::to_string(m.open.lag_ns.quantile(0.99) / 1e3) + " us");
    result.add("route_rps", percentile(m.closed.window_rates, kRateQuantile),
               "1/s");
    result.add("route_p50_us", windowed_quantile_us(m.open, 0.5), "us");
    result.add("route_p99_us", windowed_quantile_us(m.open, 0.99), "us");
    result.add("setup_s", median(setups), "s");
    result.add("cpu_us_per_req", cpu_us_per_reply(m), "us");
    result.add("rss_peak_mib", peak_rss_mib(), "MiB");
    result.add("load_peak_to_mean", peak_to_mean(load), "ratio");
    return result;
  }

  // The traced run alternates phases between the untraced server and a
  // second server whose tables are wrapped, so both halves see the same
  // drift.  Only one of the two servers is loaded at a time.
  auto census = std::make_shared<snapshot_census>();
  tcp_session traced = set_up(recipe, options.seed, census);
  account(result, traced.warmup);
  trace::clear();
  std::vector<double> untraced_windows;
  std::vector<double> traced_windows;
  log_histogram lag;
  double traced_seconds = 0.0;
  std::uint64_t traced_replies = 0;
  for (int round = 0; round < 2; ++round) {
    const tcp_measurement u = measure(session, options.seconds / 4);
    account(result, u.closed);
    account(result, u.open);
    untraced_windows.insert(untraced_windows.end(),
                            u.closed.window_rates.begin(),
                            u.closed.window_rates.end());
    trace::set_enabled(true);
    const tcp_measurement t = measure(traced, options.seconds / 4);
    trace::set_enabled(false);
    account(result, t.closed);
    account(result, t.open);
    traced_windows.insert(traced_windows.end(), t.closed.window_rates.begin(),
                          t.closed.window_rates.end());
    lag.merge(t.open.lag_ns);
    traced_seconds += t.closed.seconds + t.open.seconds;
    traced_replies += t.replied();
  }
  traced_observations observed;
  observed.requests_per_batch =
      static_cast<double>(session.server->router().requests_routed()) /
      static_cast<double>(std::max<std::uint64_t>(
          1, session.server->router().batches_routed()));
  for (tcp_session* s : {&session, &traced}) {
    s->client.reset();
    s->server->stop();
  }

  observed.untraced_rps = percentile(untraced_windows, kRateQuantile);
  observed.traced_rps = percentile(traced_windows, kRateQuantile);
  observed.client_lag_p99_us = lag.quantile(0.99) / 1e3;
  observed.traced_requests = traced_replies;
  observed.census = census.get();
  const auto spans = trace::summarize();
  const auto lookups = spans.find("table.lookup_batch");
  if (lookups != spans.end()) {
    observed.shard_busy_frac =
        lookups->second.total_ns / (2.0 * traced_seconds * 1e9);
  }
  probe_inputs in;
  in.recipe = &recipe;
  in.ids = ids;
  in.answers = answers;
  in.shards = 2;
  in.batch = 256;
  per_layer_metrics(in, observed, result);
  return result;
}

}  // namespace perfbench
