/// \file server.hpp
/// \brief The TCP front-end: an epoll reactor over per-connection
/// protocol state machines, feeding parsed ROUTE batches into the
/// shard engine, stream_router.
///
/// Thread model — one pinned `runtime::worker_pool` carries the whole
/// server, io cores reserved apart from shard cores:
///
/// ```
///           pool worker 0 .. io_threads-1        io loops (epoll)
///           pool worker io_threads .. +shards-1  shard decode loops
///
///   accept ──► io loop: read ► wire_parser ► batch ROUTEs ─┐
///                 ▲                                        ▼
///                 │ completion wakeup        stream_router channels
///                 └── encode replies ◄── shard workers (lookup_batch)
/// ```
///
/// Each io loop owns its epoll instance, an eventfd wakeup, and its
/// connections outright (no connection is ever touched by two io
/// threads).  Consecutive ROUTE commands on a connection accumulate
/// into one `stream_router::route_batch` (flushed at the configured
/// batch capacity, at end-of-readable-data, and before every
/// membership command — so requests observe exactly the membership
/// order of their connection's stream).  Replies are queued per
/// connection in arrival order: a pending ticket blocks the replies
/// behind it until its shard segments complete, which is what makes
/// pipelined streams come back in request order.
///
/// Graceful shutdown (`stop()`): the listener closes, every io loop
/// drains — open batches are flushed, in-flight tickets complete,
/// replies are written — then connections close, the shard router
/// drains its channels, and the pool goes idle.  Connections that
/// cannot drain (a peer that stopped reading) are force-closed after
/// `drain_timeout_seconds`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "emu/stream_router.hpp"
#include "runtime/placement_plan.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash::net {

struct server_config {
  /// IPv4 address to bind (loopback by default — the bench/e2e shape).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Reactor threads (pool workers 0..io_threads-1).
  std::size_t io_threads = 1;
  /// Shard decode workers (pool workers io_threads..io_threads+shards-1).
  std::size_t shards = 1;
  /// ROUTE batch flush threshold per connection (the emulator's batch
  /// size; partial batches flush at end-of-readable-data regardless).
  std::size_t batch_capacity = 256;
  /// Per-lane ring depth before submit() backpressures the reactor.
  /// Each io loop owns a private stream_router session: one
  /// single-producer ring per shard.
  std::size_t channel_depth = 4;
  /// Placement policy of the shared worker pool (io workers take the
  /// first CPUs in policy order, shard workers the next — the io/shard
  /// core split).
  runtime::placement_policy placement = runtime::default_placement_policy();
  /// Forced force-close horizon for connections that will not drain.
  double drain_timeout_seconds = 5.0;
};

/// Monotonic counters, readable at any time (approximate while running).
struct server_counters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests_routed = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t protocol_errors = 0;
};

/// The epoll-based TCP front-end.  Construct, start(), serve, stop().
class net_server {
 public:
  /// Builds the producer-owned routing table (called once).
  using table_factory = std::function<std::unique_ptr<dynamic_table>()>;

  /// \pre factory != nullptr; io_threads >= 1; shards >= 1.
  net_server(table_factory factory, server_config config);

  /// Stops (gracefully) if still running.
  ~net_server();

  net_server(const net_server&) = delete;
  net_server& operator=(const net_server&) = delete;

  /// Whether this build can run the reactor at all (Linux epoll).
  static bool supported() noexcept;

  /// Binds the listener and launches the io + shard jobs.  Throws
  /// std::runtime_error on bind failure, precondition_error on an
  /// unsupported platform.  \post port() is the bound port.
  void start();

  /// Graceful shutdown; see the file comment.  Idempotent.
  void stop();

  /// Bound TCP port (valid after start()).
  std::uint16_t port() const noexcept;

  bool running() const noexcept;

  server_counters counters() const;

  /// The routing engine (membership, epoch and routing statistics).
  const stream_router& router() const;
  stream_router& router();

  const server_config& config() const noexcept;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace hdhash::net
