/// \file tcp_client.hpp
/// \brief Single-thread TCP load client: several non-blocking
/// connections driven from one poll loop.
///
/// `net::load_gen` runs one thread per connection; next to a server
/// with an io thread and two shard workers that would put more threads
/// than cores on a 4-core host.  This client keeps the whole load on
/// the calling thread.  It runs two kinds of phase over the same
/// connections:
///
///  * closed loop — at most `window` ROUTE commands in flight per
///    connection; the reply rate is sampled in fixed windows;
///  * open loop — request k of a connection is due at
///    t0 + k / rate_per_connection whatever the replies do; latency is
///    measured from the due time, and the lag between due time and the
///    actual write is reported as the sender's own lateness.
///
/// Every reply is compared with the expected answer as it is parsed
/// (a single load and compare; the expected answers are computed before
/// the timed region), and `-ERR` replies, wrong answers and replies
/// still missing after the drain timeout are counted separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/socket.hpp"

namespace perfbench {

/// One connection's request ring, pre-encoded on the wire.  Requests
/// are sent cyclically: request k is ids[k % ids.size()].
struct request_stream {
  std::vector<hdhash::request_id> ids;
  std::vector<hdhash::server_id> expected;  ///< reference answer per id
  std::string wire;                         ///< "ROUTE <id>\r\n" ...
  std::vector<std::uint32_t> offsets;       ///< ids.size() + 1 entries

  /// Encodes `ids` into wire/offsets.
  void encode();
};

struct phase_report {
  std::uint64_t sent = 0;
  std::uint64_t replied = 0;
  std::uint64_t refused = 0;  ///< -ERR replies
  std::uint64_t wrong = 0;    ///< answers that differ from the reference
  std::uint64_t missing = 0;  ///< sent but unanswered at the drain timeout
  double seconds = 0.0;       ///< phase start to last reply
  /// Closed loop: replies per second in consecutive sampling windows.
  std::vector<double> window_rates;
  /// Both loops: process CPU time minus this thread's, in microseconds
  /// per reply, per sampling window.
  std::vector<double> window_server_cpu_us;
  /// Open loop: reply latency from due time, and send lag, in ns.
  log_histogram latency_ns;
  log_histogram lag_ns;
  /// Open loop: reply latency per consecutive sampling window.
  std::vector<log_histogram> latency_windows;

  std::uint64_t failed() const { return refused + wrong + missing; }
};

class multiplex_client {
 public:
  /// Connects one non-blocking connection per stream.  The streams must
  /// outlive the client.  Throws std::runtime_error on connect failure.
  multiplex_client(std::uint16_t port, std::vector<request_stream>& streams);

  phase_report closed_loop(double seconds, std::size_t window,
                           double sample_seconds);
  phase_report open_loop(double seconds, double total_rate,
                         double sample_seconds);

  /// Self-test hook: the next `count` answers are treated as wrong.
  void inject_wrong_answers(std::uint64_t count) { inject_wrong_ = count; }

 private:
  struct connection {
    hdhash::net::unique_fd fd;
    request_stream* stream = nullptr;
    std::uint64_t sent = 0;     ///< requests fully written
    std::uint64_t replied = 0;  ///< replies parsed
    std::uint64_t base = 0;     ///< sent at the start of the phase
    std::size_t byte_pos = 0;   ///< write position within stream->wire
    std::string in;             ///< unparsed reply bytes
    bool want_write = false;    ///< last write hit EAGAIN
  };

  /// Writes requests up to `target` (exclusive request count).  Records
  /// send lag against the open-loop schedule when `lag` is non-null.
  bool pump_send(connection& c, std::uint64_t target, std::int64_t t0,
                 double period_ns, std::int64_t offset_ns,
                 log_histogram* lag);
  /// Reads and checks replies.  Returns replies parsed.
  std::uint64_t pump_recv(connection& c, phase_report& report,
                          std::int64_t t0, double period_ns,
                          std::int64_t offset_ns, bool open);
  phase_report run(double seconds, bool open, std::size_t window,
                   double total_rate, double sample_seconds);

  std::vector<connection> connections_;
  std::vector<char> read_buffer_;
  std::uint64_t inject_wrong_ = 0;
};

}  // namespace perfbench
