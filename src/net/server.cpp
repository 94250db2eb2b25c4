#include "net/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/hugepage_arena.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "runtime/worker_pool.hpp"
#include "util/require.hpp"

#if defined(__linux__)
#define HDHASH_NET_EPOLL 1
#include <cerrno>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace hdhash::net {

#if defined(HDHASH_NET_EPOLL)

namespace {

using clock = std::chrono::steady_clock;

/// One queued reply slot, in command-arrival order.  Either a routing
/// ticket whose answers materialize when the shard workers finish, or
/// an immediately encoded reply (+OK, +PONG, -ERR, $stats).
struct pending_reply {
  std::shared_ptr<stream_router::route_batch> ticket;  // null → immediate
  std::string immediate;
};

/// Per-connection state machine, owned by exactly one io loop.
struct connection {
  unique_fd fd;
  wire_parser parser;
  std::deque<pending_reply> replies;
  /// ROUTE accumulator: created on the first ROUTE after a flush and
  /// referenced by its pending_reply slot until submitted.
  std::shared_ptr<stream_router::route_batch> open_batch;
  std::string outbuf;
  std::size_t out_offset = 0;
  bool want_write = false;      ///< EPOLLOUT armed
  bool reading = true;          ///< EPOLLIN armed
  bool peer_closed = false;     ///< read() returned 0
  bool close_requested = false; ///< fatal protocol error or drain

  bool flushed() const {
    return replies.empty() && open_batch == nullptr &&
           out_offset >= outbuf.size();
  }
};

}  // namespace

struct net_server::impl {
  table_factory factory;
  server_config config;

  unique_fd listener;
  std::uint16_t bound_port = 0;
  std::unique_ptr<runtime::worker_pool> pool;
  std::unique_ptr<stream_router> route_engine;

  /// One reactor per io worker; created before the jobs launch and
  /// destroyed only with the server, so shard-worker completion posts
  /// can never race a dying loop.
  struct io_loop {
    impl* server = nullptr;
    std::size_t index = 0;
    /// This loop's private stream_router producer row: flushes push
    /// ROUTE slices straight into single-producer shard rings —
    /// lock-free end to end.
    stream_router::session route;
    unique_fd epoll_fd;
    unique_fd wake_fd;
    std::mutex inbox_mutex;
    std::vector<int> incoming_fds;
    std::vector<std::weak_ptr<connection>> completions;
    std::atomic<bool> draining{false};
    std::unordered_map<int, std::shared_ptr<connection>> conns;

    void wake() {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t written =
          ::write(wake_fd.get(), &one, sizeof one);
    }
  };
  std::vector<std::unique_ptr<io_loop>> loops;

  std::atomic<std::size_t> next_loop{0};
  std::atomic<bool> running{false};
  bool started = false;
  bool stopped = false;

  // io-loop liveness: stop() waits for the reactors to exit *before*
  // draining the shard channels (wait_idle would block on the decode
  // loops otherwise).
  std::mutex io_exit_mutex;
  std::condition_variable io_exited;
  std::size_t io_active = 0;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> open{0};
  std::atomic<std::uint64_t> joins{0};
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> protocol_errors{0};

  void update_interest(io_loop& loop, connection& conn);
  void setup_connection(io_loop& loop, int fd);
  void close_connection(io_loop& loop, connection& conn);
  void accept_ready(io_loop& loop);
  void process_inbox(io_loop& loop);
  void process_commands(io_loop& loop, connection& conn);
  void flush_open_batch(io_loop& loop, connection& conn);
  void flush_replies(connection& conn);
  bool write_out(io_loop& loop, connection& conn);
  void maybe_close(io_loop& loop, connection& conn);
  void handle_read(io_loop& loop, const std::shared_ptr<connection>& conn);
  void begin_drain(io_loop& loop);
  void run_io_loop(io_loop& loop);
  std::string render_stats();
};

void net_server::impl::update_interest(io_loop& loop, connection& conn) {
  epoll_event event{};
  event.events = (conn.reading ? EPOLLIN : 0u) |
                 (conn.want_write ? EPOLLOUT : 0u);
  event.data.fd = conn.fd.get();
  ::epoll_ctl(loop.epoll_fd.get(), EPOLL_CTL_MOD, conn.fd.get(), &event);
}

void net_server::impl::setup_connection(io_loop& loop, int raw_fd) {
  unique_fd fd(raw_fd);
  if (loop.draining.load(std::memory_order_relaxed)) {
    return;  // refuse new work during shutdown; fd closes here
  }
  if (!set_nonblocking(fd.get(), true)) {
    return;
  }
  set_nodelay(fd.get());
  auto conn = std::make_shared<connection>();
  conn->fd = std::move(fd);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = conn->fd.get();
  if (::epoll_ctl(loop.epoll_fd.get(), EPOLL_CTL_ADD, conn->fd.get(),
                  &event) != 0) {
    return;
  }
  open.fetch_add(1, std::memory_order_relaxed);
  loop.conns.emplace(conn->fd.get(), std::move(conn));
}

void net_server::impl::close_connection(io_loop& loop, connection& conn) {
  const int fd = conn.fd.get();
  open.fetch_sub(1, std::memory_order_relaxed);
  // Erasing destroys the connection (the fd close deregisters it from
  // epoll); in-flight tickets stay alive through the router's own
  // shared_ptr and complete into a weak_ptr that no longer locks.
  loop.conns.erase(fd);
}

void net_server::impl::accept_ready(io_loop& loop) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or a transient accept error: epoll re-arms us
    }
    accepted.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target =
        next_loop.fetch_add(1, std::memory_order_relaxed) % loops.size();
    if (target == loop.index) {
      setup_connection(loop, fd);
      continue;
    }
    io_loop& other = *loops[target];
    {
      const std::lock_guard lock(other.inbox_mutex);
      other.incoming_fds.push_back(fd);
    }
    other.wake();
  }
}

void net_server::impl::process_inbox(io_loop& loop) {
  std::vector<int> fds;
  std::vector<std::weak_ptr<connection>> completions;
  {
    const std::lock_guard lock(loop.inbox_mutex);
    fds.swap(loop.incoming_fds);
    completions.swap(loop.completions);
  }
  for (const int fd : fds) {
    setup_connection(loop, fd);
  }
  for (const auto& weak : completions) {
    if (const std::shared_ptr<connection> conn = weak.lock()) {
      flush_replies(*conn);
      if (write_out(loop, *conn)) {
        maybe_close(loop, *conn);
      }
    }
  }
}

void net_server::impl::flush_open_batch(io_loop& loop, connection& conn) {
  if (conn.open_batch == nullptr) {
    return;
  }
  // May block briefly when a shard lane is full — that stall *is* the
  // backpressure path from the decode workers to the TCP window.  The
  // loop's private session pushes into its own single-producer lanes,
  // so concurrent io loops never contend a lock here.
  loop.route.submit(std::move(conn.open_batch));
  conn.open_batch = nullptr;
}

void net_server::impl::process_commands(io_loop& loop, connection& conn) {
  wire_command cmd;
  for (;;) {
    const parse_result result = conn.parser.next(cmd);
    if (result == parse_result::need_more) {
      return;
    }
    if (result == parse_result::error) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      pending_reply item;
      encode_error(item.immediate, conn.parser.error_message());
      conn.replies.push_back(std::move(item));
      if (conn.parser.failed()) {
        // Framing violation: answer, then drain and close.
        conn.close_requested = true;
        conn.reading = false;
        update_interest(loop, conn);
        return;
      }
      continue;
    }
    switch (cmd.kind) {
      case command_kind::ping: {
        pending_reply item;
        encode_pong(item.immediate);
        conn.replies.push_back(std::move(item));
        break;
      }
      case command_kind::stats: {
        pending_reply item;
        encode_bulk(item.immediate, render_stats());
        conn.replies.push_back(std::move(item));
        break;
      }
      case command_kind::route: {
        if (route_engine->members() == 0) {
          pending_reply item;
          encode_error(item.immediate, "no servers in pool");
          conn.replies.push_back(std::move(item));
          break;
        }
        if (conn.open_batch == nullptr) {
          auto ticket = std::make_shared<stream_router::route_batch>();
          ticket->requests.reserve(config.batch_capacity);
          io_loop* owner = &loop;
          ticket->on_complete = [owner, weak = std::weak_ptr<connection>(
                                            loop.conns.at(conn.fd.get()))] {
            {
              const std::lock_guard lock(owner->inbox_mutex);
              owner->completions.push_back(weak);
            }
            owner->wake();
          };
          conn.replies.push_back(pending_reply{ticket, {}});
          conn.open_batch = std::move(ticket);
        }
        conn.open_batch->requests.push_back(cmd.id);
        if (conn.open_batch->requests.size() >= config.batch_capacity) {
          flush_open_batch(loop, conn);
        }
        break;
      }
      case command_kind::join: {
        // Membership is a batch barrier: everything routed before this
        // JOIN must resolve against the pre-join epoch.
        flush_open_batch(loop, conn);
        pending_reply item;
        try {
          route_engine->join(cmd.id, cmd.weight);
          joins.fetch_add(1, std::memory_order_relaxed);
          encode_ok(item.immediate);
        } catch (const precondition_error&) {
          encode_error(item.immediate, "JOIN rejected (duplicate id, bad "
                                       "weight, or pool at capacity)");
        }
        conn.replies.push_back(std::move(item));
        break;
      }
      case command_kind::leave: {
        flush_open_batch(loop, conn);
        pending_reply item;
        try {
          route_engine->leave(cmd.id);
          leaves.fetch_add(1, std::memory_order_relaxed);
          encode_ok(item.immediate);
        } catch (const precondition_error&) {
          encode_error(item.immediate, "LEAVE rejected (server not in pool)");
        }
        conn.replies.push_back(std::move(item));
        break;
      }
    }
  }
}

void net_server::impl::flush_replies(connection& conn) {
  while (!conn.replies.empty()) {
    pending_reply& item = conn.replies.front();
    if (item.ticket != nullptr) {
      if (!item.ticket->done.load(std::memory_order_acquire)) {
        return;  // head-of-line ticket still in the shard workers
      }
      if (item.ticket->failed.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < item.ticket->requests.size(); ++i) {
          encode_error(conn.outbuf, "routing failed");
        }
      } else {
        for (const server_id server : item.ticket->answers) {
          encode_route_reply(conn.outbuf, server);
        }
      }
    } else {
      conn.outbuf.append(item.immediate);
    }
    conn.replies.pop_front();
  }
}

bool net_server::impl::write_out(io_loop& loop, connection& conn) {
  while (conn.out_offset < conn.outbuf.size()) {
    const ssize_t written =
        ::write(conn.fd.get(), conn.outbuf.data() + conn.out_offset,
                conn.outbuf.size() - conn.out_offset);
    if (written > 0) {
      conn.out_offset += static_cast<std::size_t>(written);
      continue;
    }
    if (written < 0 && errno == EINTR) {
      continue;
    }
    if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(loop, conn);
      }
      return true;
    }
    close_connection(loop, conn);  // EPIPE/ECONNRESET: peer is gone
    return false;
  }
  conn.outbuf.clear();
  conn.out_offset = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(loop, conn);
  }
  return true;
}

void net_server::impl::maybe_close(io_loop& loop, connection& conn) {
  const bool finished = conn.peer_closed || conn.close_requested ||
                        loop.draining.load(std::memory_order_relaxed);
  if (finished && conn.flushed()) {
    close_connection(loop, conn);
  }
}

void net_server::impl::handle_read(io_loop& loop,
                                   const std::shared_ptr<connection>& conn) {
  char buffer[16 * 1024];
  while (conn->reading) {
    const ssize_t received =
        ::read(conn->fd.get(), buffer, sizeof buffer);
    if (received > 0) {
      conn->parser.feed(
          std::string_view(buffer, static_cast<std::size_t>(received)));
      process_commands(loop, *conn);
      if (static_cast<std::size_t>(received) < sizeof buffer) {
        break;  // drained the socket — don't pay one extra EAGAIN read
      }
      continue;
    }
    if (received == 0) {
      conn->peer_closed = true;
      conn->reading = false;
      update_interest(loop, *conn);
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    close_connection(loop, *conn);
    return;
  }
  // End of readable data: a partial batch must not wait for more bytes
  // (pipelining-friendly is not latency-hostile).
  flush_open_batch(loop, *conn);
  flush_replies(*conn);
  if (write_out(loop, *conn)) {
    maybe_close(loop, *conn);
  }
}

void net_server::impl::begin_drain(io_loop& loop) {
  if (loop.index == 0 && listener.valid()) {
    listener.reset();  // closes and deregisters — no more accepts
  }
  // Stop reading everywhere, flush what is already parsed, and let
  // in-flight tickets complete; maybe_close() reaps each connection
  // the moment it is fully flushed.
  for (auto& [fd, conn] : loop.conns) {
    conn->reading = false;
    update_interest(loop, *conn);
    flush_open_batch(loop, *conn);
  }
  std::vector<connection*> flushable;
  flushable.reserve(loop.conns.size());
  for (auto& [fd, conn] : loop.conns) {
    flushable.push_back(conn.get());
  }
  for (connection* conn : flushable) {
    flush_replies(*conn);
    if (write_out(loop, *conn)) {
      maybe_close(loop, *conn);
    }
  }
}

void net_server::impl::run_io_loop(io_loop& loop) {
  epoll_event events[64];
  bool drain_started = false;
  clock::time_point drain_deadline{};
  for (;;) {
    const int ready =
        ::epoll_wait(loop.epoll_fd.get(), events, 64, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      break;  // reactor fd died — unrecoverable for this loop
    }
    for (int i = 0; i < (ready > 0 ? ready : 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd.get()) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t got =
            ::read(loop.wake_fd.get(), &drained, sizeof drained);
        continue;
      }
      if (loop.index == 0 && listener.valid() && fd == listener.get()) {
        accept_ready(loop);
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) {
        continue;  // closed earlier in this batch
      }
      const std::shared_ptr<connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Let read() observe the condition (0 or an error) and close.
        conn->reading = true;
        handle_read(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        handle_read(loop, conn);
      }
      if ((events[i].events & EPOLLOUT) &&
          loop.conns.count(fd) != 0) {
        flush_replies(*conn);
        if (write_out(loop, *conn)) {
          maybe_close(loop, *conn);
        }
      }
    }
    process_inbox(loop);
    if (loop.draining.load(std::memory_order_relaxed)) {
      const clock::time_point now = clock::now();
      if (!drain_started) {
        drain_started = true;
        drain_deadline =
            now + std::chrono::duration_cast<clock::duration>(
                      std::chrono::duration<double>(
                          config.drain_timeout_seconds));
        begin_drain(loop);
      }
      if (loop.conns.empty()) {
        break;
      }
      if (now >= drain_deadline) {
        // Peers that stopped reading (or never will): cut them loose.
        while (!loop.conns.empty()) {
          close_connection(loop, *loop.conns.begin()->second);
        }
        break;
      }
    }
  }
}

std::string net_server::impl::render_stats() {
  // Memory-layer panel: which backing the hot state actually landed on
  // and the arena-level residency, aggregated over every node arena
  // (shared rows are attributed to their owning arena, counted once).
  const mem::arena_registry_stats arenas = mem::registry_stats();
  char line[768];
  const int written = std::snprintf(
      line, sizeof line,
      "requests_routed=%llu\r\nbatches_routed=%llu\r\nservers=%zu\r\n"
      "epoch=%llu\r\nsnapshots_published=%zu\r\nshards=%zu\r\n"
      "io_threads=%zu\r\nconnections_open=%llu\r\n"
      "connections_accepted=%llu\r\njoins=%llu\r\nleaves=%llu\r\n"
      "protocol_errors=%llu\r\n"
      "arena_backing=%s\r\nresident_pages=%zu\r\nhugepage_bytes=%zu",
      static_cast<unsigned long long>(route_engine->requests_routed()),
      static_cast<unsigned long long>(route_engine->batches_routed()),
      route_engine->members(),
      static_cast<unsigned long long>(route_engine->epoch()),
      route_engine->published_epochs(), route_engine->shards(),
      config.io_threads,
      static_cast<unsigned long long>(open.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          accepted.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(joins.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          leaves.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          protocol_errors.load(std::memory_order_relaxed)),
      std::string(mem::to_string(arenas.backing)).c_str(),
      arenas.resident_pages, arenas.hugepage_bytes);
  return std::string(line, static_cast<std::size_t>(written));
}

bool net_server::supported() noexcept { return sockets_supported(); }

net_server::net_server(table_factory factory, server_config config)
    : impl_(std::make_unique<impl>()) {
  HDHASH_REQUIRE(factory != nullptr, "net server needs a table factory");
  HDHASH_REQUIRE(config.io_threads >= 1, "need at least one io thread");
  HDHASH_REQUIRE(config.shards >= 1, "need at least one shard");
  HDHASH_REQUIRE(config.batch_capacity >= 1,
                 "batch capacity must be positive");
  impl_->factory = std::move(factory);
  impl_->config = std::move(config);
}

net_server::~net_server() {
  try {
    stop();
  } catch (...) {
    // Destructor shutdown keeps exceptions (a worker fault surfaced by
    // wait_idle) from escaping; call stop() directly to observe them.
  }
}

void net_server::start() {
  impl& s = *impl_;
  HDHASH_REQUIRE(!s.started, "net server already started");
  std::string error;
  s.listener = tcp_listen(s.config.bind_address, s.config.port, 512,
                          &s.bound_port, &error);
  if (!s.listener.valid()) {
    throw std::runtime_error("net server cannot listen on " +
                             s.config.bind_address + ": " + error);
  }
  const std::size_t io = s.config.io_threads;
  s.pool = std::make_unique<runtime::worker_pool>(io + s.config.shards,
                                                  s.config.placement);
  auto table = s.factory();
  HDHASH_REQUIRE(table != nullptr, "table factory returned null");
  stream_router::config router_config;
  router_config.shards = s.config.shards;
  router_config.sessions = io;  // one private producer row per io loop
  router_config.channel_depth = s.config.channel_depth;
  s.route_engine = std::make_unique<stream_router>(std::move(table), *s.pool,
                                                   io, router_config);
  s.route_engine->start();

  s.loops.reserve(io);
  for (std::size_t i = 0; i < io; ++i) {
    auto loop = std::make_unique<impl::io_loop>();
    loop->server = &s;
    loop->index = i;
    loop->route = s.route_engine->open_session(i);
    loop->epoll_fd = unique_fd(::epoll_create1(EPOLL_CLOEXEC));
    loop->wake_fd =
        unique_fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!loop->epoll_fd.valid() || !loop->wake_fd.valid()) {
      throw std::runtime_error("net server cannot create reactor fds");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = loop->wake_fd.get();
    ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, loop->wake_fd.get(),
                &event);
    if (i == 0) {
      epoll_event accept_event{};
      accept_event.events = EPOLLIN;
      accept_event.data.fd = s.listener.get();
      ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, s.listener.get(),
                  &accept_event);
    }
    s.loops.push_back(std::move(loop));
  }
  s.io_active = io;
  s.started = true;
  s.running.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < io; ++i) {
    impl::io_loop* loop = s.loops[i].get();
    s.pool->submit(i, [&s, loop] {
      // Guarantees the exit signal even if the reactor throws — stop()
      // must never deadlock waiting on a loop that died early.
      struct exit_signal {
        impl& server;
        ~exit_signal() {
          {
            const std::lock_guard lock(server.io_exit_mutex);
            --server.io_active;
          }
          server.io_exited.notify_all();
        }
      } signal{s};
      s.run_io_loop(*loop);
    });
  }
}

void net_server::stop() {
  impl& s = *impl_;
  if (!s.started || s.stopped) {
    return;
  }
  s.stopped = true;
  s.running.store(false, std::memory_order_release);
  for (auto& loop : s.loops) {
    loop->draining.store(true, std::memory_order_relaxed);
    loop->wake();
  }
  {
    std::unique_lock lock(s.io_exit_mutex);
    s.io_exited.wait(lock, [&s] { return s.io_active == 0; });
  }
  // With the reactors parked, close the shard channels and drain: every
  // ticket submitted before the loops exited completes here, and the
  // pool's wait_idle rethrows the first worker fault.
  s.route_engine->stop();
}

std::uint16_t net_server::port() const noexcept { return impl_->bound_port; }

bool net_server::running() const noexcept {
  return impl_->running.load(std::memory_order_acquire);
}

server_counters net_server::counters() const {
  const impl& s = *impl_;
  server_counters counters;
  counters.connections_accepted =
      s.accepted.load(std::memory_order_relaxed);
  counters.connections_open = s.open.load(std::memory_order_relaxed);
  counters.requests_routed =
      s.route_engine != nullptr ? s.route_engine->requests_routed() : 0;
  counters.joins = s.joins.load(std::memory_order_relaxed);
  counters.leaves = s.leaves.load(std::memory_order_relaxed);
  counters.protocol_errors =
      s.protocol_errors.load(std::memory_order_relaxed);
  return counters;
}

const stream_router& net_server::router() const {
  HDHASH_REQUIRE(impl_->route_engine != nullptr,
                 "router is available after start()");
  return *impl_->route_engine;
}

stream_router& net_server::router() {
  HDHASH_REQUIRE(impl_->route_engine != nullptr,
                 "router is available after start()");
  return *impl_->route_engine;
}

const server_config& net_server::config() const noexcept {
  return impl_->config;
}

#else  // !HDHASH_NET_EPOLL

/// Non-Linux stub: construction works (so configuration code is
/// portable), start() fails loudly, supported() says why.
struct net_server::impl {
  table_factory factory;
  server_config config;
};

bool net_server::supported() noexcept { return false; }

net_server::net_server(table_factory factory, server_config config)
    : impl_(std::make_unique<impl>()) {
  HDHASH_REQUIRE(factory != nullptr, "net server needs a table factory");
  impl_->factory = std::move(factory);
  impl_->config = std::move(config);
}

net_server::~net_server() = default;

void net_server::start() {
  HDHASH_REQUIRE(false, "the epoll reactor needs Linux; "
                        "net_server::supported() reports availability");
}

void net_server::stop() {}

std::uint16_t net_server::port() const noexcept { return 0; }
bool net_server::running() const noexcept { return false; }
server_counters net_server::counters() const { return {}; }

const stream_router& net_server::router() const {
  HDHASH_REQUIRE(false, "net server unsupported on this platform");
}

stream_router& net_server::router() {
  HDHASH_REQUIRE(false, "net server unsupported on this platform");
}

const server_config& net_server::config() const noexcept {
  return impl_->config;
}

#endif  // HDHASH_NET_EPOLL

}  // namespace hdhash::net
