/// \file factory.hpp
/// \brief Construction of any hdhash algorithm by name, with shared
/// options — the one table builder behind benches, examples, drivers
/// and tests:
///
///   table_options options;
///   options.hd.dimension = 4096;
///   auto table = make_table("hd", options);
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/hd_table.hpp"
#include "table/dynamic_table.hpp"

namespace hdhash {

/// Options shared by all algorithms plus per-algorithm tuning knobs.
struct table_options {
  std::string_view hash_name = "xxhash64";  ///< registered hash for h(·)
  std::uint64_t seed = 0;                   ///< hash seed (tables)
  std::size_t consistent_vnodes = 1;        ///< ring points per server
  std::size_t maglev_table_size = 65537;    ///< prime lookup-table size
  double bounded_balance_factor = 1.25;     ///< bounded-loads c factor
  std::size_t hierarchical_groups = 8;      ///< shards of hd-hierarchical
  hd_table_config hd{};                     ///< HD hashing parameters
};

/// Creates a table by algorithm name, one of all_algorithms().  Each
/// algorithm reads the shared fields and its own knobs of `options` and
/// ignores the rest, so one option block can be built generically and
/// specialized per sweep point.
/// \throws precondition_error listing all valid names for unknown ones,
/// and on invalid knob combinations (e.g. a composite maglev table size).
std::unique_ptr<dynamic_table> make_table(std::string_view algorithm,
                                          const table_options& options = {});

/// The three algorithms the paper compares (Figures 4–6).
std::vector<std::string_view> paper_algorithms();

/// Every algorithm in the library (paper set + modular, jump, maglev).
std::vector<std::string_view> all_algorithms();

/// True when the named algorithm accepts join weights != 1 (consistent
/// via ring-point multiplicity, weighted-rendezvous natively, hd and
/// hd-hierarchical via circle-slot replication).  The scenario matrix
/// uses this to compile weighted playbooks per algorithm: weight-blind
/// algorithms get the identical stream with weights clamped to 1.
/// \throws precondition_error listing all valid names for unknown ones.
bool algorithm_supports_weights(std::string_view algorithm);

}  // namespace hdhash
