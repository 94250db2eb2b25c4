/// \file memory_region.hpp
/// \brief The fault surface abstraction.
///
/// The paper's robustness experiments flip "bits in memory" of a running
/// hash table.  Different algorithms keep different state resident — the
/// sorted ring for consistent hashing, the server identifiers for
/// rendezvous, the server hypervectors for HD hashing — so every
/// `dynamic_table` describes its live state as a list of labelled byte
/// regions.  The injector then corrupts those bytes without knowing
/// anything about the algorithm, which keeps the comparison between
/// algorithms honest: the *same* error process hits each one's actual
/// working memory.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace hdhash {

/// One contiguous span of live algorithm state.
struct memory_region {
  std::span<std::byte> bytes;  ///< Mutable view; never owning.
  std::string_view label;      ///< Stable description, e.g. "ring".
};

/// Implemented by every component whose memory can be corrupted.
class fault_surface {
 public:
  virtual ~fault_surface() = default;

  /// Current live regions.  Views are invalidated by any mutation of the
  /// component (join/leave); callers must re-fetch after mutating.
  /// Writes through them are valid until the next call on the
  /// component: a component may re-derive state from its regions at
  /// that call (hd_table rebuilds its decode index from the rows).
  virtual std::vector<memory_region> fault_regions() = 0;

  /// Total fault-surface size in bits (sum over regions).
  std::size_t fault_bits();
};

}  // namespace hdhash
