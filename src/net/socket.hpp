/// \file socket.hpp
/// \brief Minimal RAII + setup helpers over BSD sockets, shared by the
/// server's reactor, perfbench's TCP client and the e2e tests.
///
/// Deliberately thin: these wrap exactly the setup dance every user of
/// the net layer repeats (socket/bind/listen with SO_REUSEADDR,
/// non-blocking mode, TCP_NODELAY, ephemeral-port readback) and nothing
/// else — all actual io stays with the callers.  On platforms without
/// BSD sockets the helpers return invalid fds with an explanatory
/// error; `net::sockets_supported()` reports the capability up front.
#pragma once

#include <cstdint>
#include <string>

namespace hdhash::net {

/// Move-only owner of a file descriptor (closed on destruction).
class unique_fd {
 public:
  unique_fd() = default;
  explicit unique_fd(int fd) noexcept : fd_(fd) {}
  ~unique_fd() { reset(); }

  unique_fd(unique_fd&& other) noexcept : fd_(other.release()) {}
  unique_fd& operator=(unique_fd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  unique_fd(const unique_fd&) = delete;
  unique_fd& operator=(const unique_fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  /// Gives up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Closes the held fd (if any) and takes ownership of `fd`.
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Whether this build has BSD sockets at all (POSIX platforms).
bool sockets_supported() noexcept;

/// Creates a listening TCP socket bound to `address:port`
/// (SO_REUSEADDR, non-blocking).  `port` 0 binds an ephemeral port;
/// `bound_port` (when non-null) receives the actual port either way.
/// Returns an invalid fd and fills `error` on failure.
unique_fd tcp_listen(const std::string& address, std::uint16_t port,
                     int backlog, std::uint16_t* bound_port,
                     std::string* error);

/// Blocking TCP connect to `address:port` (the client side: load
/// generator, tests).  Returns an invalid fd and fills `error` on
/// failure.
unique_fd tcp_connect(const std::string& address, std::uint16_t port,
                      std::string* error);

/// O_NONBLOCK on/off.  Returns false on failure.
bool set_nonblocking(int fd, bool enabled) noexcept;

/// TCP_NODELAY — the front-end writes coalesced reply batches, so
/// Nagle only adds tail latency.  Returns false on failure.
bool set_nodelay(int fd) noexcept;

}  // namespace hdhash::net
