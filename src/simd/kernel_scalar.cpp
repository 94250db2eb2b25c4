/// \file kernel_scalar.cpp
/// \brief Portable scalar Hamming kernel — the reference tier.
///
/// Compiled with the library's baseline flags only (plus -mpopcnt where
/// available, so std::popcount lowers to the POPCNT instruction instead
/// of a libgcc call), and with auto-vectorization off, so a
/// -march=native build keeps it scalar.  Every other kernel must be
/// bit-identical to this one; the conformance suite enforces it.
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.hpp"

namespace hdhash::simd::detail {
namespace {

bool supported_scalar() noexcept { return true; }

std::uint64_t distance_scalar(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

/// Fixed-trip-count tile: the compile-time probe count lets the inner
/// loop unroll fully, which is where the scalar tier's word-reuse win
/// over a probe-at-a-time loop comes from.
template <std::size_t Tile>
void tile_fixed(const std::uint64_t* row, const std::uint64_t* const* probes,
                std::size_t words, std::uint64_t* dist) noexcept {
  std::uint64_t acc[Tile] = {};
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t rw = row[w];
    for (std::size_t t = 0; t < Tile; ++t) {
      acc[t] += static_cast<std::uint64_t>(std::popcount(rw ^ probes[t][w]));
    }
  }
  for (std::size_t t = 0; t < Tile; ++t) {
    dist[t] = acc[t];
  }
}

void tile_distance_scalar(const std::uint64_t* row,
                          const std::uint64_t* const* probes, std::size_t tile,
                          std::size_t words, std::uint64_t* dist) noexcept {
  if (tile == kMaxTile) {
    tile_fixed<kMaxTile>(row, probes, words, dist);
    return;
  }
  for (std::size_t t = 0; t < tile; ++t) {
    dist[t] = 0;
  }
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t rw = row[w];
    for (std::size_t t = 0; t < tile; ++t) {
      dist[t] += static_cast<std::uint64_t>(std::popcount(rw ^ probes[t][w]));
    }
  }
}

}  // namespace

const hamming_kernel scalar_kernel = {
    "scalar", 0, supported_scalar, distance_scalar, tile_distance_scalar};

}  // namespace hdhash::simd::detail
