#include "emu/emulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <vector>

#include "util/require.hpp"

namespace hdhash {

run_stats& run_stats::merge(const run_stats& other) {
  requests += other.requests;
  joins += other.joins;
  leaves += other.leaves;
  batches += other.batches;
  mismatches += other.mismatches;
  invalid_assignments += other.invalid_assignments;
  total_request_ns += other.total_request_ns;
  for (const auto& [server, count] : other.load) {
    load[server] += count;
  }
  return *this;
}

run_stats merge(std::span<const run_stats> parts) {
  run_stats merged;
  for (const run_stats& part : parts) {
    merged.merge(part);
  }
  return merged;
}

std::int64_t timing_now_ns(timing_mode timing) {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  if (timing == timing_mode::thread_cpu) {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(ts.tv_nsec);
  }
#endif
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Answers one request sub-batch against the current table state and
/// accounts load/mismatches; `answers`/`truth` are reused across calls.
void answer_sub_batch(dynamic_table& table, dynamic_table* shadow,
                      std::span<const request_id> requests, run_stats& stats,
                      timing_mode timing, std::vector<server_id>& answers,
                      std::vector<server_id>& truth) {
  if (requests.empty()) {
    return;
  }
  answers.resize(requests.size());
  if (timing != timing_mode::off) {
    const std::int64_t start = timing_now_ns(timing);
    table.lookup_batch(requests, answers);
    stats.total_request_ns +=
        static_cast<double>(timing_now_ns(timing) - start);
  } else {
    table.lookup_batch(requests, answers);
  }
  ++stats.batches;

  if (shadow != nullptr) {
    truth.resize(requests.size());
    shadow->lookup_batch(requests, truth);
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++stats.requests;
    ++stats.load[answers[i]];
    if (shadow != nullptr && answers[i] != truth[i]) {
      ++stats.mismatches;
      if (!shadow->contains(answers[i])) {
        ++stats.invalid_assignments;
      }
    }
  }
}

}  // namespace

void apply_event_batch(dynamic_table& table, dynamic_table* shadow,
                       std::span<const event> batch, run_stats& stats,
                       timing_mode timing) {
  // Membership events segment the batch: buffered requests are answered
  // against the table state they actually observed, never a later one.
  std::vector<request_id> pending;
  std::vector<server_id> answers;
  std::vector<server_id> truth;
  pending.reserve(batch.size());
  for (const event& e : batch) {
    if (e.kind == event_kind::request) {
      pending.push_back(e.id);
      continue;
    }
    answer_sub_batch(table, shadow, pending, stats, timing, answers, truth);
    pending.clear();
    switch (e.kind) {
      case event_kind::join:
        table.join(e.id, e.weight);
        if (shadow != nullptr) {
          shadow->join(e.id, e.weight);
        }
        ++stats.joins;
        break;
      case event_kind::leave:
        table.leave(e.id);
        if (shadow != nullptr) {
          shadow->leave(e.id);
        }
        ++stats.leaves;
        break;
      case event_kind::request:
        break;  // handled above
    }
  }
  answer_sub_batch(table, shadow, pending, stats, timing, answers, truth);
}

emulator::emulator(dynamic_table& table, std::size_t buffer_capacity)
    : table_(table), buffer_capacity_(buffer_capacity) {
  HDHASH_REQUIRE(buffer_capacity > 0, "buffer capacity must be positive");
}

void emulator::enable_shadow() { shadow_ = table_.clone(); }

run_stats emulator::run(std::span<const event> events) {
  run_stats stats;
  const timing_mode timing = timing_ ? timing_mode::wall : timing_mode::off;
  for (std::size_t begin = 0; begin < events.size();
       begin += buffer_capacity_) {
    apply_event_batch(
        table_, shadow_.get(),
        events.subspan(begin,
                       std::min(buffer_capacity_, events.size() - begin)),
        stats, timing);
  }
  return stats;
}

}  // namespace hdhash
