#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>

#include "common.hpp"

namespace perfbench::trace {

namespace {

constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kMaxSpansPerThread = 1 << 19;

struct span_record {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::uint64_t units;
  std::uint32_t parent;
};

struct thread_buffer {
  std::uint32_t thread = 0;
  std::vector<span_record> spans;
  std::vector<std::uint32_t> open;  // indices of unfinished spans
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
std::vector<std::shared_ptr<thread_buffer>> g_registry;

thread_buffer& local_buffer() {
  thread_local std::shared_ptr<thread_buffer> buffer = [] {
    auto created = std::make_shared<thread_buffer>();
    created->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    created->thread = static_cast<std::uint32_t>(g_registry.size());
    g_registry.push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

void set_enabled(bool enabled) noexcept {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

scope::scope(const char* name, std::uint64_t units) noexcept
    : name_(name), units_(units) {
  if (!enabled()) {
    return;
  }
  thread_buffer& buffer = local_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    ++buffer.dropped;
    return;
  }
  index_ = static_cast<std::uint32_t>(buffer.spans.size());
  const std::uint32_t parent =
      buffer.open.empty() ? kNoParent : buffer.open.back();
  buffer.spans.push_back({name_, 0, 0, 0, parent});
  buffer.open.push_back(index_);
  active_ = true;
  start_ = now_ns();
}

scope::~scope() {
  if (!active_) {
    return;
  }
  const std::int64_t end = now_ns();
  thread_buffer& buffer = local_buffer();
  span_record& record = buffer.spans[index_];
  record.start = start_;
  record.end = end;
  record.units = units_;
  buffer.open.pop_back();
}

std::map<std::string, summary> summarize() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::map<std::string, summary> out;
  for (const auto& buffer : g_registry) {
    for (const span_record& span : buffer->spans) {
      const double duration = static_cast<double>(span.end - span.start);
      summary& entry = out[span.name];
      ++entry.count;
      entry.units += span.units;
      entry.total_ns += duration;
      entry.durations_ns.push_back(duration);
    }
  }
  return out;
}

std::uint64_t dropped() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : g_registry) {
    total += buffer->dropped;
  }
  return total;
}

bool write_spans(const std::string& path, std::size_t limit) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::size_t written = 0;
  for (const auto& buffer : g_registry) {
    for (std::size_t i = 0; i < buffer->spans.size() && written < limit;
         ++i, ++written) {
      const span_record& span = buffer->spans[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"thread\": %u, \"id\": %zu, "
                   "\"parent\": %lld, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"units\": %llu}\n",
                   span.name, buffer->thread, i,
                   span.parent == kNoParent
                       ? -1LL
                       : static_cast<long long>(span.parent),
                   static_cast<long long>(span.start),
                   static_cast<long long>(span.end),
                   static_cast<unsigned long long>(span.units));
    }
  }
  return std::fclose(out) == 0;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_registry) {
    buffer->spans.clear();
    buffer->open.clear();
    buffer->dropped = 0;
  }
}

}  // namespace perfbench::trace
