/// \file weighted_rendezvous.hpp
/// \brief Weighted rendezvous hashing (HRW with heterogeneous server
/// capacities).  Extension beyond the paper's baselines.
///
/// Real pools are heterogeneous: a server with twice the capacity should
/// take twice the traffic.  Weighted HRW scores each server as
///   score(s, r) = -w_s / ln(u)   with   u = h(s, r) mapped to (0, 1),
/// which makes P[s wins] exactly proportional to w_s while retaining
/// rendezvous hashing's minimal disruption (changing one server's weight
/// only moves requests to/from that server).
#pragma once

#include <unordered_map>

#include "hashing/hash64.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

class weighted_rendezvous_table final : public dynamic_table {
 public:
  explicit weighted_rendezvous_table(const hash64& hash,
                                     std::uint64_t seed = 0);

  /// Weighted membership is native here: P[s wins] is exactly
  /// proportional to the weight.  \pre weight > 0, server not present.
  void join(server_id server, double weight = 1.0) override;

  /// The member's weight.  \pre server present.
  double weight(server_id server) const override;

  void leave(server_id server) override;
  server_id lookup(request_id request) const override;
  table_stats stats() const override;
  bool contains(server_id server) const override;
  std::size_t server_count() const override { return entries_.size(); }
  std::vector<server_id> servers() const override;
  std::string_view name() const noexcept override {
    return "weighted-rendezvous";
  }
  std::unique_ptr<dynamic_table> clone() const override;

  /// Shared immutable snapshot: the state is plain value members
  /// and const lookups are pure, so one shared deep copy is already
  /// a safe concurrently-readable snapshot (see dynamic_table).
  std::shared_ptr<const dynamic_table> snapshot() const override {
    return std::make_shared<const weighted_rendezvous_table>(*this);
  }

  /// Fault surface: the (id, weight) entries — both fields are live
  /// routing state.
  std::vector<memory_region> fault_regions() override;

 private:
  struct entry {
    server_id server;
    double weight;
  };

  std::size_t find_index(server_id server) const noexcept;

  const hash64* hash_;
  std::uint64_t seed_;
  std::vector<entry> entries_;
};

}  // namespace hdhash
