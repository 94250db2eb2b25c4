/// \file traced_table.hpp
/// \brief A dynamic_table decorator that records a span around every
/// call the pipelines make into the table layer.
///
/// The traced run hands the workload's factories this wrapper instead
/// of the bare table.  The pipelines then call through it exactly as
/// they call the real table — `join`/`leave` on the producer table,
/// `snapshot()` when an epoch is published, `lookup_batch` on the
/// published snapshot from the shard workers — so the spans show where
/// the workload's own time goes without touching the library.
/// Published snapshots are wrapped too, and the wrapper counts how many
/// of them are alive at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "table/dynamic_table.hpp"

namespace perfbench {

/// Live-snapshot accounting shared by every wrapper of one run.
struct snapshot_census {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};
  std::atomic<std::uint64_t> published{0};
};

class traced_table final : public hdhash::dynamic_table {
 public:
  /// Wraps a mutable table (the producer-owned one).
  traced_table(std::unique_ptr<hdhash::dynamic_table> inner,
               std::shared_ptr<snapshot_census> census);
  ~traced_table() override;

  traced_table(const traced_table&) = delete;
  traced_table& operator=(const traced_table&) = delete;

  void join(hdhash::server_id server, double weight = 1.0) override;
  void leave(hdhash::server_id server) override;
  hdhash::server_id lookup(hdhash::request_id request) const override;
  void lookup_batch(std::span<const hdhash::request_id> requests,
                    std::span<hdhash::server_id> out) const override;
  using dynamic_table::lookup_batch;
  double weight(hdhash::server_id server) const override;
  hdhash::table_stats stats() const override;
  bool contains(hdhash::server_id server) const override;
  std::size_t server_count() const override;
  std::vector<hdhash::server_id> servers() const override;
  std::string_view name() const noexcept override;
  std::unique_ptr<hdhash::dynamic_table> clone() const override;
  std::shared_ptr<const hdhash::dynamic_table> snapshot() const override;
  std::vector<hdhash::memory_region> fault_regions() override;

  /// The wrapped table.
  const hdhash::dynamic_table& inner() const noexcept { return *view_; }
  hdhash::dynamic_table& inner_mutable();

 private:
  /// Wraps a published (frozen) snapshot and counts it as live.
  traced_table(std::shared_ptr<const hdhash::dynamic_table> frozen,
               std::shared_ptr<snapshot_census> census);

  std::shared_ptr<const hdhash::dynamic_table> view_;
  hdhash::dynamic_table* mutable_ = nullptr;  // null for snapshots
  std::shared_ptr<snapshot_census> census_;
};

/// The table a factory produced, with any traced_table wrapper removed.
const hdhash::dynamic_table& unwrap(const hdhash::dynamic_table& table);
hdhash::dynamic_table& unwrap(hdhash::dynamic_table& table);

}  // namespace perfbench
