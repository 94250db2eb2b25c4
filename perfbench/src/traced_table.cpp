#include "traced_table.hpp"

#include "trace.hpp"
#include "util/require.hpp"

namespace perfbench {

traced_table::traced_table(std::unique_ptr<hdhash::dynamic_table> inner,
                           std::shared_ptr<snapshot_census> census)
    : census_(std::move(census)) {
  mutable_ = inner.get();
  view_ = std::shared_ptr<const hdhash::dynamic_table>(std::move(inner));
}

traced_table::traced_table(std::shared_ptr<const hdhash::dynamic_table> frozen,
                           std::shared_ptr<snapshot_census> census)
    : view_(std::move(frozen)), census_(std::move(census)) {
  const std::int64_t live =
      census_->live.fetch_add(1, std::memory_order_relaxed) + 1;
  std::int64_t peak = census_->peak.load(std::memory_order_relaxed);
  while (live > peak && !census_->peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

traced_table::~traced_table() {
  if (mutable_ == nullptr) {
    census_->live.fetch_sub(1, std::memory_order_relaxed);
  }
}

hdhash::dynamic_table& traced_table::inner_mutable() {
  HDHASH_REQUIRE(mutable_ != nullptr, "published snapshots are immutable");
  return *mutable_;
}

void traced_table::join(hdhash::server_id server, double weight) {
  trace::scope span("table.join", 1);
  inner_mutable().join(server, weight);
}

void traced_table::leave(hdhash::server_id server) {
  trace::scope span("table.leave", 1);
  inner_mutable().leave(server);
}

hdhash::server_id traced_table::lookup(hdhash::request_id request) const {
  return view_->lookup(request);
}

void traced_table::lookup_batch(std::span<const hdhash::request_id> requests,
                                std::span<hdhash::server_id> out) const {
  trace::scope span("table.lookup_batch", requests.size());
  view_->lookup_batch(requests, out);
}

double traced_table::weight(hdhash::server_id server) const {
  return view_->weight(server);
}

hdhash::table_stats traced_table::stats() const { return view_->stats(); }

bool traced_table::contains(hdhash::server_id server) const {
  return view_->contains(server);
}

std::size_t traced_table::server_count() const {
  return view_->server_count();
}

std::vector<hdhash::server_id> traced_table::servers() const {
  return view_->servers();
}

std::string_view traced_table::name() const noexcept { return view_->name(); }

std::unique_ptr<hdhash::dynamic_table> traced_table::clone() const {
  return std::make_unique<traced_table>(view_->clone(), census_);
}

std::shared_ptr<const hdhash::dynamic_table> traced_table::snapshot() const {
  trace::scope span("table.snapshot", 1);
  census_->published.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const hdhash::dynamic_table>(
      new traced_table(view_->snapshot(), census_));
}

std::vector<hdhash::memory_region> traced_table::fault_regions() {
  return inner_mutable().fault_regions();
}

const hdhash::dynamic_table& unwrap(const hdhash::dynamic_table& table) {
  const auto* traced = dynamic_cast<const traced_table*>(&table);
  return traced != nullptr ? traced->inner() : table;
}

hdhash::dynamic_table& unwrap(hdhash::dynamic_table& table) {
  auto* traced = dynamic_cast<traced_table*>(&table);
  return traced != nullptr ? traced->inner_mutable() : table;
}

}  // namespace perfbench
