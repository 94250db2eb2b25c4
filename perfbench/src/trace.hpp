/// \file trace.hpp
/// \brief In-memory span recorder for the traced run.
///
/// A span is one call into a layer's public function, recorded by the
/// benchmark around that call: name, start and end (steady clock, ns),
/// the enclosing span on the same thread, and a count of work units
/// (requests, commands, rows) the call covered.  Spans go into
/// per-thread buffers with no locking on the hot path and are read only
/// after every recording thread has stopped.  The per-layer metrics are
/// computed from these spans; the raw spans are written out when the
/// run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Turns recording on or off process-wide (off by default).
void set_enabled(bool enabled) noexcept;
bool enabled() noexcept;

/// RAII span: records [construction, destruction) when tracing is on.
class scope {
 public:
  explicit scope(const char* name, std::uint64_t units = 0) noexcept;
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  /// Work units the span covered, when known only after the call.
  void set_units(std::uint64_t units) noexcept { units_ = units; }

 private:
  const char* name_;
  std::uint64_t units_;
  std::int64_t start_ = 0;
  std::uint32_t index_ = 0;
  bool active_ = false;
};

/// Aggregate of every span with one name.
struct summary {
  std::uint64_t count = 0;
  std::uint64_t units = 0;
  double total_ns = 0.0;
  std::vector<double> durations_ns;
};

/// Aggregates all recorded spans by name.  Call only while no thread is
/// recording.
std::map<std::string, summary> summarize();

/// Spans dropped because a thread's buffer was full.
std::uint64_t dropped();

/// Writes the recorded spans as JSON lines (at most `limit`).  Returns
/// false when the file cannot be written.
bool write_spans(const std::string& path, std::size_t limit);

/// Discards every recorded span.
void clear();

}  // namespace perfbench::trace
