/// Standalone TCP load-balancer server: the hd-hierarchical table
/// behind the wire protocol, served by the epoll reactor.
///
///   net_server [--port P] [--io N] [--shards N|auto] [--servers K]
///              [--pin <none|compact>]
///
/// Binds 127.0.0.1:7700 by default, pre-joins K servers (ids 1..K) so
/// ROUTE works immediately, then serves until SIGINT/SIGTERM — at
/// which point it drains connections gracefully and prints the final
/// counters.  Drive it with netcat:
///
///   $ printf 'PING\r\nROUTE 7\r\nSTATS\r\n' | nc 127.0.0.1 7700
///
/// For load, `python3 perfbench/run.py --workload tcp-steady` runs the
/// same `net_server` in process and drives it with a pipelined client.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "exp/factory.hpp"
#include "exp/sharded.hpp"
#include "net/server.hpp"
#include "runtime/cpu_topology.hpp"
#include "runtime/placement_plan.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

/// `--name N` / `--name=N` → parsed positive value; fallback otherwise.
std::size_t flag_value(int argc, char** argv, const std::string& name,
                       std::size_t fallback) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc) {
      return hdhash::parse_positive_value(argv[i + 1]);
    }
    if (arg.rfind(prefix, 0) == 0) {
      return hdhash::parse_positive_value(arg.c_str() + prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hdhash;
  if (!net::net_server::supported()) {
    std::fprintf(stderr, "net_server: epoll reactor unsupported here\n");
    return 1;
  }
  const emulator_options opts = parse_emulator_options(argc, argv);
  if (!opts.ok()) {
    for (const std::string& error : opts.errors) {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return 1;
  }
  const std::size_t port = flag_value(argc, argv, "--port", 7700);
  const std::size_t io_requested = flag_value(argc, argv, "--io", 0);
  const std::size_t servers = flag_value(argc, argv, "--servers", 48);
  if (port > 65535) {
    std::fprintf(stderr, "--port needs a value in [1, 65535]\n");
    return 1;
  }

  // `--shards auto` sizes the whole split io-aware: the io reservation
  // comes off the shard budget instead of oversubscribing cores.
  const runtime::cpu_topology& topo = runtime::host_topology();
  const runtime::io_shard_split split =
      runtime::plan_io_shard_split(topo, io_requested);
  net::server_config config;
  config.port = static_cast<std::uint16_t>(port);
  config.io_threads = split.io_threads;
  config.shards = opts.shards_set && !opts.shards_auto ? opts.shards
                                                       : split.shards;
  config.placement = opts.placement;

  table_options options;
  options.hd.dimension = 4096;
  options.hd.capacity = std::max<std::size_t>(256, servers * 2);
  options.hd.slot_cache = true;
  net::net_server server(
      [options] { return make_table("hd-hierarchical", options); }, config);
  server.start();
  for (std::size_t s = 1; s <= servers; ++s) {
    server.router().join(static_cast<server_id>(s));
  }

  std::printf(
      "hdhash net_server listening on %s:%u\n"
      "  io threads %zu, shards %zu, placement %s\n"
      "  %zu server(s) pre-joined\n"
      "  stop with SIGINT/SIGTERM (graceful drain)\n",
      server.config().bind_address.c_str(), server.port(),
      config.io_threads, config.shards,
      std::string(runtime::to_string(config.placement)).c_str(), servers);
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::printf("\ndraining...\n");
  server.stop();
  const net::server_counters counters = server.counters();
  std::printf(
      "served %llu request(s) over %llu connection(s); joins %llu, "
      "leaves %llu, protocol errors %llu\n",
      static_cast<unsigned long long>(counters.requests_routed),
      static_cast<unsigned long long>(counters.connections_accepted),
      static_cast<unsigned long long>(counters.joins),
      static_cast<unsigned long long>(counters.leaves),
      static_cast<unsigned long long>(counters.protocol_errors));
  return 0;
}
