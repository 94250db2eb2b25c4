/// \file arena_options.hpp
/// \brief Memory-backing selection for the hugepage arenas — the
/// `HDHASH_MEM=auto|huge|thp|page` surface.
///
/// At d = 10,000 one batch lookup streams ~78KB of item-memory rows;
/// with 4KB pages that is a TLB entry every three rows.  The arena
/// layer (hugepage_arena.hpp) backs the hot hypervector state with 2MB
/// pages when it can, but *which* backing a host supports is strictly a
/// runtime question: explicit hugepages need a reserved pool
/// (`vm.nr_hugepages`), transparent hugepages can be disabled system-
/// wide, and containers routinely mask both.  Following the
/// `HDHASH_FORCE_KERNEL` convention, the request is an env choice
/// that degrades transparently in `auto` mode and fails loudly for
/// explicit unsupported choices — asking for `huge` on a hugepage-less host must
/// never silently hand back 4KB mappings.
///
/// The mapping syscalls themselves sit behind an injectable
/// `map_backend` (the `cpu_topology` sysfs-root pattern), so tests
/// script the huge→THP→page degradation order without needing a kernel
/// that actually has a hugepage pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

namespace hdhash::mem {

/// What actually backs an arena's mappings.
enum class mem_backing : std::uint8_t {
  huge,  ///< explicit 2MB hugepages (mmap MAP_HUGETLB)
  thp,   ///< THP-advised 4KB mappings (madvise MADV_HUGEPAGE)
  page,  ///< plain 4KB mappings
  heap,  ///< no arena — rows on the default allocator (the baseline)
};

/// What the user asked for (`HDHASH_MEM`).
enum class mem_request : std::uint8_t {
  automatic,  ///< best available: huge, then thp, then page
  huge,       ///< explicit hugepages or fail loudly
  thp,        ///< THP-advised or fail loudly
  page,       ///< plain 4KB mappings (the fallback lane CI forces)
};

/// Canonical name ("huge", "thp", "page", "heap").
std::string_view to_string(mem_backing backing) noexcept;

/// Canonical name ("auto", "huge", "thp", "page").
std::string_view to_string(mem_request request) noexcept;

/// Parses a request name; std::nullopt for unknown names (callers
/// decide whether to fail loudly or collect the error).
std::optional<mem_request> parse_mem_request(std::string_view name);

/// The backing request arenas are created under: the program's
/// override when one was installed, else `HDHASH_MEM`, else `auto`.  Throws
/// hdhash::precondition_error for unknown env values — a typo must
/// never silently degrade to auto (the HDHASH_FORCE_KERNEL convention).
mem_request select_mem_request();

/// Installs a program's own backing choice, which wins over the
/// environment for arenas created afterwards (already-created arenas
/// keep the backing they landed on, so install it before building
/// tables).
void set_mem_request_override(mem_request request);

/// Removes the override (tests).
void clear_mem_request_override() noexcept;

/// Injectable chunk-mapping backend.  `map` returns the mapped base
/// (zero-filled, page-aligned) or nullptr when the kind is unavailable;
/// `unmap` releases a mapping made by the same backend.  Default-
/// constructed (empty) functions mean the real syscall backend.
struct map_backend {
  /// Maps `bytes` with the given backing kind, or nullptr on failure.
  std::function<void*(std::size_t bytes, mem_backing kind)> map;
  /// Releases a mapping previously returned by `map`.
  std::function<void(void* base, std::size_t bytes)> unmap;

  /// True when both hooks are present (a scripted fixture backend).
  bool scripted() const noexcept {
    return static_cast<bool>(map) && static_cast<bool>(unmap);
  }
};

/// The real mmap/madvise backend (huge = MAP_HUGETLB, thp = plain
/// mapping + MADV_HUGEPAGE, page = plain mapping).
const map_backend& system_map_backend();

/// Construction parameters for hugepage_arena.
struct arena_options {
  /// Backing to request; `automatic` degrades huge → thp → page with a
  /// one-time loud note, the explicit kinds fail loudly when
  /// unavailable.
  mem_request request = mem_request::automatic;
  /// Mapping granularity; rounded up per chunk to the backing's page
  /// size.  2MB = one explicit hugepage per chunk.
  std::size_t chunk_bytes = std::size_t{2} << 20;
  /// Row stride quantum: every allocation is rounded up to a multiple
  /// of this and aligned to it.  Must be a power of two >= 64 (the
  /// cache line), so rows never share a line and SIMD loads stay
  /// aligned.
  std::size_t stride_quantum = 64;
  /// NUMA node this arena is placed for (bookkeeping reported in
  /// stats; first-touch by the allocating thread does the actual
  /// placement).  -1 = unpinned/unknown.
  int numa_node = -1;
  /// Mapping hooks; empty = system_map_backend().
  map_backend backend = {};
};

}  // namespace hdhash::mem
