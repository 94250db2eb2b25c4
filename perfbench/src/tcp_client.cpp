#include "tcp_client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kReadBytes = 64 * 1024;
constexpr double kDrainTimeoutSeconds = 5.0;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tcp client: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

void request_stream::encode() {
  wire.clear();
  offsets.clear();
  offsets.reserve(ids.size() + 1);
  char line[40];
  for (const hdhash::request_id id : ids) {
    offsets.push_back(static_cast<std::uint32_t>(wire.size()));
    const int length = std::snprintf(line, sizeof(line), "ROUTE %llu\r\n",
                                     static_cast<unsigned long long>(id));
    wire.append(line, static_cast<std::size_t>(length));
  }
  offsets.push_back(static_cast<std::uint32_t>(wire.size()));
}

multiplex_client::multiplex_client(std::uint16_t port,
                                   std::vector<request_stream>& streams)
    : read_buffer_(kReadBytes) {
  connections_.resize(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    std::string error;
    connection& c = connections_[i];
    c.fd = hdhash::net::tcp_connect("127.0.0.1", port, &error);
    if (!c.fd.valid()) {
      throw std::runtime_error("tcp client: connect failed: " + error);
    }
    if (!hdhash::net::set_nonblocking(c.fd.get(), true) ||
        !hdhash::net::set_nodelay(c.fd.get())) {
      fail("socket options");
    }
    c.stream = &streams[i];
  }
}

bool multiplex_client::pump_send(connection& c, std::uint64_t target,
                                 std::int64_t t0, double period_ns,
                                 std::int64_t offset_ns, log_histogram* lag) {
  const request_stream& s = *c.stream;
  const std::uint64_t n = s.ids.size();
  bool progressed = false;
  while (c.sent < target) {
    const std::uint64_t index = c.sent % n;
    const std::uint64_t count = std::min<std::uint64_t>(target - c.sent,
                                                        n - index);
    const std::size_t end = s.offsets[index + count];
    const ssize_t written = ::send(c.fd.get(), s.wire.data() + c.byte_pos,
                                   end - c.byte_pos, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        c.want_write = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      fail("send");
    }
    c.want_write = false;
    progressed = true;
    const std::size_t wanted = end - c.byte_pos;
    c.byte_pos += static_cast<std::size_t>(written);
    const std::int64_t t = lag != nullptr ? now_ns() : 0;
    while (c.sent < target && s.offsets[(c.sent % n) + 1] <= c.byte_pos) {
      if (lag != nullptr) {
        const double due = static_cast<double>(t0 + offset_ns) +
                           static_cast<double>(c.sent - c.base) * period_ns;
        const double late = static_cast<double>(t) - due;
        lag->record(late > 0.0 ? static_cast<std::uint64_t>(late) : 0);
      }
      ++c.sent;
      if (c.sent % n == 0) {
        c.byte_pos = 0;
      }
    }
    if (static_cast<std::size_t>(written) < wanted) {
      c.want_write = true;
      break;
    }
  }
  return progressed;
}

std::uint64_t multiplex_client::pump_recv(connection& c, phase_report& report,
                                          std::int64_t t0, double period_ns,
                                          std::int64_t offset_ns, bool open) {
  const request_stream& s = *c.stream;
  const std::uint64_t n = s.ids.size();
  std::uint64_t parsed = 0;
  for (;;) {
    const ssize_t got =
        ::recv(c.fd.get(), read_buffer_.data(), read_buffer_.size(), 0);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      fail("recv");
    }
    if (got == 0) {
      throw std::runtime_error("tcp client: server closed the connection");
    }
    c.in.append(read_buffer_.data(), static_cast<std::size_t>(got));
    const std::int64_t t = open ? now_ns() : 0;
    const char* data = c.in.data();
    const std::size_t size = c.in.size();
    std::size_t pos = 0;
    while (pos < size) {
      std::size_t cursor = pos + 1;
      bool refused = false;
      std::uint64_t value = 0;
      if (data[pos] == ':') {
        while (cursor < size && data[cursor] >= '0' && data[cursor] <= '9') {
          value = value * 10 + static_cast<std::uint64_t>(data[cursor] - '0');
          ++cursor;
        }
        if (cursor + 1 >= size) {
          break;  // frame incomplete
        }
        if (data[cursor] != '\r' || data[cursor + 1] != '\n') {
          throw std::runtime_error("tcp client: malformed integer reply");
        }
        cursor += 2;
      } else if (data[pos] == '-') {
        const void* eol = std::memchr(data + pos, '\n', size - pos);
        if (eol == nullptr) {
          break;
        }
        cursor = static_cast<std::size_t>(static_cast<const char*>(eol) -
                                          data) + 1;
        refused = true;
      } else {
        throw std::runtime_error("tcp client: unexpected reply type");
      }
      pos = cursor;
      const std::uint64_t k = c.replied++;
      ++parsed;
      if (refused) {
        ++report.refused;
      } else if (inject_wrong_ > 0) {
        --inject_wrong_;
        ++report.wrong;
      } else if (value != s.expected[k % n]) {
        ++report.wrong;
      }
      if (open) {
        const double due = static_cast<double>(t0 + offset_ns) +
                           static_cast<double>(k - c.base) * period_ns;
        const double latency = static_cast<double>(t) - due;
        const auto ns =
            latency > 0.0 ? static_cast<std::uint64_t>(latency) : 0;
        report.latency_ns.record(ns);
        report.latency_windows.back().record(ns);
      }
    }
    c.in.erase(0, pos);
    if (static_cast<std::size_t>(got) < read_buffer_.size()) {
      break;
    }
  }
  return parsed;
}

phase_report multiplex_client::closed_loop(double seconds, std::size_t window,
                                           double sample_seconds) {
  return run(seconds, false, window, 0.0, sample_seconds);
}

phase_report multiplex_client::open_loop(double seconds, double total_rate,
                                         double sample_seconds) {
  return run(seconds, true, 0, total_rate, sample_seconds);
}

phase_report multiplex_client::run(double seconds, bool open,
                                   std::size_t window, double total_rate,
                                   double sample_seconds) {
  phase_report report;
  const std::size_t conns = connections_.size();
  for (connection& c : connections_) {
    c.base = c.sent;
  }
  const double period_ns =
      open ? 1e9 * static_cast<double>(conns) / total_rate : 0.0;
  std::vector<std::int64_t> offset(conns, 0);
  for (std::size_t i = 0; i < conns; ++i) {
    offset[i] = static_cast<std::int64_t>(period_ns * static_cast<double>(i) /
                                          static_cast<double>(conns));
  }
  std::vector<pollfd> fds(conns);
  if (open) {
    report.latency_windows.emplace_back();
  }
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_end =
      end + static_cast<std::int64_t>(kDrainTimeoutSeconds * 1e9);
  const auto sample_ns = static_cast<std::int64_t>(sample_seconds * 1e9);
  std::int64_t next_sample = t0 + sample_ns;
  std::int64_t last_sample = t0;
  double sampled_process_cpu = process_cpu_seconds();
  double sampled_client_cpu = thread_cpu_seconds();
  std::uint64_t replied = 0;
  std::uint64_t sampled = 0;
  std::int64_t last_reply = t0;
  for (;;) {
    const std::int64_t now = now_ns();
    const bool sending = now < end;
    bool progressed = false;
    for (std::size_t i = 0; i < conns; ++i) {
      connection& c = connections_[i];
      if (sending) {
        std::uint64_t target = c.replied + window;
        if (open) {
          const double elapsed = static_cast<double>(now - t0 - offset[i]);
          target = elapsed < 0.0
                       ? c.base
                       : c.base + static_cast<std::uint64_t>(
                                      elapsed / period_ns) + 1;
        }
        progressed |= pump_send(c, target, t0, period_ns, offset[i],
                                open ? &report.lag_ns : nullptr);
      }
      const std::uint64_t got =
          pump_recv(c, report, t0, period_ns, offset[i], open);
      if (got > 0) {
        replied += got;
        progressed = true;
        last_reply = now;
      }
    }
    if (sending && now >= next_sample) {
      if (open) {
        report.latency_windows.emplace_back();
      } else {
        report.window_rates.push_back(static_cast<double>(replied - sampled) *
                                      1e9 /
                                      static_cast<double>(now - last_sample));
      }
      const double process_cpu = process_cpu_seconds();
      const double client_cpu = thread_cpu_seconds();
      if (replied > sampled) {
        report.window_server_cpu_us.push_back(
            (process_cpu - sampled_process_cpu -
             (client_cpu - sampled_client_cpu)) *
            1e6 / static_cast<double>(replied - sampled));
      }
      sampled_process_cpu = process_cpu;
      sampled_client_cpu = client_cpu;
      sampled = replied;
      last_sample = now;
      next_sample = now + sample_ns;
    }
    if (!sending) {
      bool drained = true;
      for (const connection& c : connections_) {
        drained = drained && c.replied == c.sent;
      }
      if (drained || now >= drain_end) {
        break;
      }
    }
    if (!progressed && (!open || !sending)) {
      for (std::size_t i = 0; i < conns; ++i) {
        fds[i].fd = connections_[i].fd.get();
        fds[i].events = static_cast<short>(
            POLLIN | (connections_[i].want_write ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      ::poll(fds.data(), fds.size(), 1);
    }
  }
  report.seconds = static_cast<double>(last_reply - t0) * 1e-9;
  for (const connection& c : connections_) {
    report.sent += c.sent - c.base;
    report.replied += c.replied - c.base;
    report.missing += c.sent - c.replied;
  }
  return report;
}

}  // namespace perfbench
