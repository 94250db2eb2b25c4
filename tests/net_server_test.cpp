/// End-to-end loopback tests of the TCP front-end: raw-socket command
/// smoke, protocol-error handling over a live connection, graceful
/// shutdown with in-flight work, and the determinism contract — the
/// routing answers delivered over the socket are bit-identical to the
/// in-process emulator/table on the same event stream.
///
/// Table dimensions are kept small (dimension 2048, capacity 64) so
/// the suite stays fast under the ASan/UBSan CI lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "emu/emulator.hpp"
#include "emu/event.hpp"
#include "exp/factory.hpp"
#include "hashing/splitmix_hash.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hdhash::net {
namespace {

table_options small_options() {
  table_options options;
  options.hd.dimension = 2048;
  options.hd.capacity = 64;
  options.hd.slot_cache = true;
  return options;
}

net_server make_server(std::size_t shards = 2, std::size_t io_threads = 1) {
  server_config config;
  config.io_threads = io_threads;
  config.shards = shards;
  config.batch_capacity = 64;
  config.drain_timeout_seconds = 10.0;
  return net_server(
      [] { return make_table("hd-hierarchical", small_options()); }, config);
}

#if defined(__unix__) || defined(__APPLE__)

void write_all(int fd, const std::string& bytes) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t written =
        ::write(fd, bytes.data() + offset, bytes.size() - offset);
    ASSERT_GT(written, 0) << "write failed";
    offset += static_cast<std::size_t>(written);
  }
}

/// Blocking-reads until `expected` reply frames parsed (or the parser
/// faults / the peer closes, which fails the test).
std::vector<wire_reply> read_replies(int fd, reply_parser& parser,
                                     std::size_t expected) {
  std::vector<wire_reply> replies;
  wire_reply reply;
  char buffer[8192];
  while (replies.size() < expected) {
    while (replies.size() < expected &&
           parser.next(reply) == parse_result::command) {
      replies.push_back(reply);
    }
    if (replies.size() == expected) {
      break;
    }
    EXPECT_FALSE(parser.failed()) << parser.error_message();
    if (parser.failed()) {
      break;
    }
    const ssize_t received = ::read(fd, buffer, sizeof buffer);
    EXPECT_GT(received, 0) << "peer closed with replies outstanding";
    if (received <= 0) {
      break;
    }
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(received)));
  }
  return replies;
}

/// One blocking request/response exchange on a fresh parser.
std::vector<wire_reply> exchange(int fd, reply_parser& parser,
                                 const std::string& commands,
                                 std::size_t expected) {
  write_all(fd, commands);
  return read_replies(fd, parser, expected);
}

#endif  // unix

TEST(NetServer, RawSocketCommandSmoke) {
  if (!net_server::supported()) {
    GTEST_SKIP() << "epoll reactor unsupported on this platform";
  }
  net_server server = make_server();
  server.start();
  ASSERT_NE(server.port(), 0);

  std::string error;
  const unique_fd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  reply_parser parser;

  // Empty pool: ROUTE is rejected without touching the shard workers.
  auto replies = exchange(fd.get(), parser, "ROUTE 5\r\n", 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, wire_reply::kind::error);

  // Mixed pipelined stream: replies come back in command order.
  replies = exchange(fd.get(), parser,
                     "PING\r\nJOIN 1\r\nJOIN 2 2.0\r\nROUTE 5\r\n"
                     "STATS\r\nLEAVE 2\r\nROUTE 5\r\n",
                     7);
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[0].type, wire_reply::kind::status);
  EXPECT_EQ(replies[0].text, "PONG");
  EXPECT_EQ(replies[1].type, wire_reply::kind::status);
  EXPECT_EQ(replies[2].type, wire_reply::kind::status);
  EXPECT_EQ(replies[3].type, wire_reply::kind::integer);
  EXPECT_TRUE(replies[3].value == 1 || replies[3].value == 2);
  EXPECT_EQ(replies[4].type, wire_reply::kind::bulk);
  EXPECT_NE(replies[4].text.find("requests_routed="), std::string::npos);
  EXPECT_EQ(replies[5].type, wire_reply::kind::status);
  // Only server 1 remains.
  EXPECT_EQ(replies[6].type, wire_reply::kind::integer);
  EXPECT_EQ(replies[6].value, 1u);

  // Recoverable command errors keep the connection alive.
  replies = exchange(fd.get(), parser,
                     "BOGUS\r\nROUTE nope\r\nJOIN 1\r\nLEAVE 99\r\nPING\r\n",
                     5);
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[0].type, wire_reply::kind::error);  // unknown verb
  EXPECT_EQ(replies[1].type, wire_reply::kind::error);  // bad id
  EXPECT_EQ(replies[2].type, wire_reply::kind::error);  // duplicate join
  EXPECT_EQ(replies[3].type, wire_reply::kind::error);  // unknown leave
  EXPECT_EQ(replies[4].text, "PONG");

  server.stop();
  const server_counters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.requests_routed, 2u);
  EXPECT_EQ(counters.joins, 2u);
  EXPECT_EQ(counters.leaves, 1u);
  EXPECT_GE(counters.protocol_errors, 2u);
}

TEST(NetServer, OversizedLineIsAnsweredThenClosed) {
  if (!net_server::supported()) {
    GTEST_SKIP() << "epoll reactor unsupported on this platform";
  }
  net_server server = make_server(1, 1);
  server.start();
  std::string error;
  const unique_fd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  write_all(fd.get(), std::string(2 * kMaxLineBytes, 'A'));
  reply_parser parser;
  const auto replies = read_replies(fd.get(), parser, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, wire_reply::kind::error);
  // The server closes after flushing the error reply.
  char byte = 0;
  EXPECT_EQ(::read(fd.get(), &byte, 1), 0);
  server.stop();
}

/// The tentpole determinism assertion: a single connection interleaving
/// JOIN/LEAVE/ROUTE over the socket gets exactly the answers the
/// in-process table gives for the same command sequence, and the
/// delivered load histogram is bit-identical to a plain emulator run
/// over the equivalent event stream.
TEST(NetServer, SingleConnectionChurnMatchesInProcessEmulator) {
  if (!net_server::supported()) {
    GTEST_SKIP() << "epoll reactor unsupported on this platform";
  }
  // Deterministic interleaved stream: join burst, routed traffic with
  // periodic membership churn (all weights 1.0 — event streams carry
  // no weights).
  std::vector<event> events;
  std::uint64_t state = 0x1234'5678;
  const auto next_id = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 100'000;
  };
  std::vector<std::uint64_t> live;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    events.push_back({event_kind::join, s});
    live.push_back(s);
  }
  std::uint64_t next_server = 9;
  for (int i = 0; i < 4000; ++i) {
    if (i % 97 == 96 && live.size() < 30) {
      events.push_back({event_kind::join, next_server});
      live.push_back(next_server++);
    } else if (i % 131 == 130 && live.size() > 2) {
      events.push_back({event_kind::leave, live.front()});
      live.erase(live.begin());
    } else {
      events.push_back({event_kind::request, next_id()});
    }
  }

  // Socket run.
  net_server server = make_server(4, 1);
  server.start();
  std::string error;
  const unique_fd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string commands;
  for (const event& e : events) {
    switch (e.kind) {
      case event_kind::request:
        commands += "ROUTE " + std::to_string(e.id) + "\r\n";
        break;
      case event_kind::join:
        commands += "JOIN " + std::to_string(e.id) + "\r\n";
        break;
      case event_kind::leave:
        commands += "LEAVE " + std::to_string(e.id) + "\r\n";
        break;
    }
  }
  reply_parser parser;
  const auto replies = exchange(fd.get(), parser, commands, events.size());
  ASSERT_EQ(replies.size(), events.size());
  server.stop();

  // In-process replay of the identical command sequence.
  auto table = make_table("hd-hierarchical", small_options());
  std::unordered_map<server_id, std::uint64_t> socket_load;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const event& e = events[i];
    const wire_reply& reply = replies[i];
    switch (e.kind) {
      case event_kind::request: {
        ASSERT_EQ(reply.type, wire_reply::kind::integer) << "event " << i;
        const server_id expected = table->lookup(e.id);
        if (reply.value != expected) {
          ++mismatches;
        }
        ++socket_load[reply.value];
        break;
      }
      case event_kind::join:
        ASSERT_EQ(reply.type, wire_reply::kind::status) << "event " << i;
        table->join(e.id);
        break;
      case event_kind::leave:
        ASSERT_EQ(reply.type, wire_reply::kind::status) << "event " << i;
        table->leave(e.id);
        break;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << "socket answers diverged from the in-process table";

  // And the merged histogram against a plain emulator run.
  auto reference_table = make_table("hd-hierarchical", small_options());
  emulator reference(*reference_table, 64);
  const run_stats expected = reference.run(events);
  EXPECT_EQ(socket_load, expected.load)
      << "delivered load histogram diverged from the emulator";
}

/// Multi-connection determinism under a static pool: client threads,
/// each on its own blocking connection, pipeline ROUTEs in fixed
/// windows, and every answer must equal the in-process table's lookup
/// of its id (order across connections is irrelevant without churn).
TEST(NetServer, MultiConnectionLoadMatchesInProcessTable) {
  if (!net_server::supported()) {
    GTEST_SKIP() << "epoll reactor unsupported on this platform";
  }
  static constexpr std::size_t kConnections = 8;
  static constexpr std::size_t kRequests = 2000;  // per connection
  static constexpr std::size_t kWindow = 64;
  const auto id_of = [](std::size_t connection, std::size_t i) {
    return splitmix_hash::mix(connection * kRequests + i);
  };

  net_server server = make_server(4, 2);
  server.start();
  for (std::uint64_t s = 1; s <= 16; ++s) {
    server.router().join(s);
  }
  std::vector<std::vector<wire_reply>> replies(kConnections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&server, &replies, &id_of, c] {
      std::string error;
      const unique_fd fd = tcp_connect("127.0.0.1", server.port(), &error);
      ASSERT_TRUE(fd.valid()) << error;
      reply_parser parser;
      for (std::size_t begin = 0; begin < kRequests; begin += kWindow) {
        const std::size_t end = std::min(begin + kWindow, kRequests);
        std::string commands;
        for (std::size_t i = begin; i < end; ++i) {
          commands += "ROUTE " + std::to_string(id_of(c, i)) + "\r\n";
        }
        const auto window = exchange(fd.get(), parser, commands, end - begin);
        ASSERT_EQ(window.size(), end - begin) << "connection " << c;
        replies[c].insert(replies[c].end(), window.begin(), window.end());
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  server.stop();

  auto table = make_table("hd-hierarchical", small_options());
  for (std::uint64_t s = 1; s <= 16; ++s) {
    table->join(s);
  }
  std::size_t checked = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    ASSERT_EQ(replies[c].size(), kRequests) << "connection " << c;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const wire_reply& reply = replies[c][i];
      ASSERT_EQ(reply.type, wire_reply::kind::integer)
          << "connection " << c << ", request " << i;
      ASSERT_EQ(reply.value, table->lookup(id_of(c, i)))
          << "connection " << c << ", request " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, kConnections * kRequests);
}

TEST(NetServer, GracefulShutdownCompletesInflightWork) {
  if (!net_server::supported()) {
    GTEST_SKIP() << "epoll reactor unsupported on this platform";
  }
  net_server server = make_server(2, 1);
  server.start();
  for (std::uint64_t s = 1; s <= 4; ++s) {
    server.router().join(s);
  }
  std::string error;
  const unique_fd fd = tcp_connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  // A pipelined burst the server will still be routing when stop()
  // lands: the drain contract says every accepted request is answered
  // before the connection closes.
  const std::size_t burst = 5000;
  std::string commands;
  for (std::size_t i = 0; i < burst; ++i) {
    commands += "ROUTE " + std::to_string(i) + "\r\n";
  }
  write_all(fd.get(), commands);
  // Wait until the server has parsed and submitted the whole burst
  // (drain stops reading, so commands still in the socket would be
  // dropped — in-flight means submitted, not half-sent).
  while (server.counters().requests_routed < burst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&server] { server.stop(); });

  reply_parser parser;
  std::vector<wire_reply> replies;
  wire_reply reply;
  char buffer[8192];
  for (;;) {
    const ssize_t received = ::read(fd.get(), buffer, sizeof buffer);
    if (received <= 0) {
      break;  // drained and closed
    }
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(received)));
    while (parser.next(reply) == parse_result::command) {
      replies.push_back(reply);
    }
  }
  stopper.join();
  ASSERT_EQ(replies.size(), burst);
  for (const wire_reply& r : replies) {
    EXPECT_EQ(r.type, wire_reply::kind::integer);
  }
  EXPECT_FALSE(server.running());
  // stop() is idempotent.
  server.stop();
}

TEST(NetServer, StopWithoutTrafficIsClean) {
  if (!net_server::supported()) {
    GTEST_SKIP() << "epoll reactor unsupported on this platform";
  }
  net_server server = make_server(1, 2);
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace hdhash::net
