/// \file protocol.hpp
/// \brief The hdhash wire protocol: a compact, RESP-flavoured command
/// set for driving the load balancer over TCP, with incremental
/// parsers for both directions.
///
/// Requests are single CRLF-terminated lines of space-separated tokens
/// (inline commands in Redis terms — trivially pipelinable, printable,
/// debuggable with netcat):
///
/// ```
/// command  = "PING"                        ; liveness
///          | "ROUTE" SP id                 ; map request id -> server
///          | "JOIN"  SP id [SP weight]     ; add server (weight > 0)
///          | "LEAVE" SP id                 ; remove server
///          | "STATS"                       ; server counters
/// id       = 1*20DIGIT                     ; decimal uint64
/// weight   = positive decimal double ("2", "1.5")
/// line     = command CRLF                  ; bare LF also accepted
/// ```
///
/// Replies reuse RESP's first-byte type tags, so any RESP-aware tooling
/// can read them:
///
/// ```
/// "+OK\r\n" / "+PONG\r\n"     simple status     (JOIN, LEAVE, PING)
/// ":<server-id>\r\n"          integer           (ROUTE answer)
/// "-ERR <message>\r\n"        error             (any command)
/// "$<len>\r\n<payload>\r\n"   bulk string       (STATS)
/// ```
///
/// Both parsers are incremental and allocation-frugal: bytes are fed in
/// whatever fragments the socket delivered, partial frames simply
/// return `need_more`, and a following feed() resumes mid-line — the
/// property the truncated-read protocol tests pin down.  Malformed
/// *commands* (unknown verb, bad integer, wrong arity) surface as
/// recoverable `error` results: the offending line is consumed and
/// parsing continues, mirroring how RESP servers answer `-ERR` and keep
/// the connection.  Framing violations (a line exceeding
/// `max_line_bytes` — flood or binary garbage) are *fatal*: the parser
/// latches `failed()` and the owner must close the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hdhash::net {

/// Upper bound on one command line, terminator included.  Generous for
/// the grammar above (max legitimate line ≈ 50 bytes) yet small enough
/// that an unterminated flood is rejected within one receive buffer.
inline constexpr std::size_t kMaxLineBytes = 512;

enum class command_kind : std::uint8_t { ping, route, join, leave, stats };

/// One parsed request-side command.
struct wire_command {
  command_kind kind = command_kind::ping;
  std::uint64_t id = 0;  ///< request id (ROUTE) or server id (JOIN/LEAVE)
  double weight = 1.0;   ///< JOIN weight (1.0 when omitted)
};

/// Outcome of one parser pull.
enum class parse_result : std::uint8_t {
  need_more,  ///< no complete frame buffered — feed more bytes
  command,    ///< one command (or reply) produced
  error,      ///< malformed frame — see error_message() / failed()
};

/// Incremental request parser (server side).  Feed bytes, pull
/// commands; see the file comment for the error taxonomy.
class wire_parser {
 public:
  explicit wire_parser(std::size_t max_line_bytes = kMaxLineBytes);

  /// Appends raw socket bytes to the parse buffer.
  void feed(std::string_view bytes);

  /// Pulls the next complete command.  After a recoverable `error` the
  /// bad line has been consumed and next() may be called again; after a
  /// fatal error (failed() == true) next() keeps returning `error`.
  parse_result next(wire_command& out);

  /// Human-readable reason for the last `error` result.
  const std::string& error_message() const noexcept { return error_; }

  /// Latched fatal framing violation: the connection should be closed
  /// after flushing an error reply.
  bool failed() const noexcept { return failed_; }

  /// Bytes currently buffered and not yet consumed (tests).
  std::size_t buffered() const noexcept { return buffer_.size() - offset_; }

 private:
  parse_result fail_line(std::string_view message, std::size_t consume);

  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t offset_ = 0;
  std::string error_;
  bool failed_ = false;
};

// --- reply encoding (server side) -------------------------------------

void encode_ok(std::string& out);
void encode_pong(std::string& out);
void encode_route_reply(std::string& out, std::uint64_t server);
void encode_error(std::string& out, std::string_view message);
void encode_bulk(std::string& out, std::string_view payload);

// --- reply parsing (client side: the e2e tests) -----------------------

/// One parsed reply frame.
struct wire_reply {
  enum class kind : std::uint8_t { status, error, integer, bulk };
  kind type = kind::status;
  std::uint64_t value = 0;  ///< integer replies
  std::string text;         ///< status line / error message / bulk payload
};

/// Incremental reply parser.  Any malformed frame is fatal here — a
/// client that cannot trust its reply stream has nothing to resync on.
class reply_parser {
 public:
  explicit reply_parser(std::size_t max_frame_bytes = 64 * 1024);

  void feed(std::string_view bytes);
  parse_result next(wire_reply& out);
  const std::string& error_message() const noexcept { return error_; }
  bool failed() const noexcept { return failed_; }

 private:
  parse_result fail(std::string_view message);

  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t offset_ = 0;
  std::string error_;
  bool failed_ = false;
};

}  // namespace hdhash::net
