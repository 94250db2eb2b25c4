/// Conformance suite for the SIMD Hamming kernels (src/simd/).
///
/// Every compiled-in kernel must be *bit-identical* to an independent
/// bit-by-bit reference — distances and, through the hd_table, winners.
/// The dimensions deliberately include partial tail words (the classic
/// SIMD popcount bug: a 256/512-bit lane overread or an unmasked tail),
/// and run under the ASan CI lane so an out-of-bounds tail load fails
/// loudly rather than silently reading slack bytes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hd_table.hpp"
#include "fault/injector.hpp"
#include "hashing/registry.hpp"
#include "hdc/hypervector.hpp"
#include "simd/hamming_kernel.hpp"
#include "util/rng.hpp"

namespace hdhash {
namespace {

/// Bit-by-bit reference distance: shares no code with any kernel.
std::uint64_t reference_distance(const hdc::hypervector& a,
                                 const hdc::hypervector& b) {
  std::uint64_t distance = 0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    distance += a.test(i) != b.test(i);
  }
  return distance;
}

/// Dimensions chosen to hit every tail shape: single word, partial
/// word, whole 256-bit lanes, exactly one Harley–Seal block (4096 =
/// 64 words), partial lanes past a block, and the paper's d = 10,000
/// (157 words — one word beyond a 512-bit boundary).
constexpr std::array<std::size_t, 9> kDims = {64,   65,   127,  192, 1000,
                                              4093, 4096, 8192, 10000};

class KernelConformanceTest
    : public ::testing::TestWithParam<const simd::hamming_kernel*> {
 protected:
  void SetUp() override {
    if (!GetParam()->supported()) {
      GTEST_SKIP() << "CPU cannot execute kernel '" << GetParam()->name
                   << "'";
    }
  }
  void TearDown() override { simd::reset_active_kernel(); }
};

TEST_P(KernelConformanceTest, DistanceMatchesReferenceOnRandomPairs) {
  const simd::hamming_kernel& kernel = *GetParam();
  xoshiro256 rng(0xC0DE);
  for (const std::size_t dim : kDims) {
    for (int pair = 0; pair < 4; ++pair) {
      const auto a = hdc::hypervector::random(dim, rng);
      const auto b = hdc::hypervector::random(dim, rng);
      EXPECT_EQ(kernel.distance(a.words().data(), b.words().data(),
                                a.word_count()),
                reference_distance(a, b))
          << kernel.name << " dim=" << dim;
    }
  }
}

TEST_P(KernelConformanceTest, DistanceOnDegenerateRows) {
  const simd::hamming_kernel& kernel = *GetParam();
  for (const std::size_t dim : kDims) {
    const auto zeros = hdc::hypervector::zeros(dim);
    const auto ones = hdc::hypervector::ones(dim);
    const std::size_t words = zeros.word_count();
    // all-zeros vs all-ones: every one of the dim bits differs — and
    // not one bit more, which is exactly what an unmasked tail word
    // would add.
    EXPECT_EQ(kernel.distance(zeros.words().data(), ones.words().data(),
                              words),
              dim)
        << kernel.name << " dim=" << dim;
    EXPECT_EQ(kernel.distance(zeros.words().data(), zeros.words().data(),
                              words),
              0u);
    EXPECT_EQ(kernel.distance(ones.words().data(), ones.words().data(),
                              words),
              0u);
  }
}

TEST_P(KernelConformanceTest, TileDistanceMatchesPerProbeDistance) {
  const simd::hamming_kernel& kernel = *GetParam();
  xoshiro256 rng(0x7E57);
  for (const std::size_t dim : {std::size_t{65}, std::size_t{1000},
                                std::size_t{4096}, std::size_t{10000}}) {
    const auto row = hdc::hypervector::random(dim, rng);
    std::vector<hdc::hypervector> probe_store;
    probe_store.reserve(simd::kMaxTile);
    std::array<const std::uint64_t*, simd::kMaxTile> probes{};
    for (std::size_t t = 0; t < simd::kMaxTile; ++t) {
      probe_store.push_back(hdc::hypervector::random(dim, rng));
      probes[t] = probe_store.back().words().data();
    }
    // Every tile width, including the partial tiles of a batch tail.
    for (std::size_t tile = 1; tile <= simd::kMaxTile; ++tile) {
      std::array<std::uint64_t, simd::kMaxTile> dist{};
      kernel.tile_distance(row.words().data(), probes.data(), tile,
                           row.word_count(), dist.data());
      for (std::size_t t = 0; t < tile; ++t) {
        EXPECT_EQ(dist[t], reference_distance(row, probe_store[t]))
            << kernel.name << " dim=" << dim << " tile=" << tile
            << " t=" << t;
      }
    }
  }
}

TEST_P(KernelConformanceTest, LookupBatchWinnersMatchScalarKernel) {
  // End-to-end: the same table answers the same batch under the scalar
  // kernel and under the kernel on test; assignments must be identical
  // (dimension 10,000 exercises the partial 157th word on every row).
  // The second shape is the paper's robustness setup — 512 servers on
  // 768 slots with injected bit flips — where winners sit a step or
  // less from their probes and the batch sweep's prefix bound prunes
  // most rows.
  struct table_shape {
    std::size_t capacity;
    server_id servers;
    std::size_t flips;
  };
  std::vector<request_id> requests(300);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i] = (i + 1) * 0x9e3779b97f4a7c15ULL;
  }
  for (const table_shape shape : {table_shape{256, 48, 0},
                                  table_shape{768, 512, 10}}) {
    hd_table_config config;
    config.dimension = 10'000;
    config.capacity = shape.capacity;
    hd_table table(default_hash(), config);
    for (server_id s = 1; s <= shape.servers; ++s) {
      table.join(s);
    }
    bit_flip_injector injector(0xF11B);
    scoped_injection injection(injector, table, shape.flips);
    std::vector<server_id> expected(requests.size());
    ASSERT_TRUE(simd::set_active_kernel("scalar"));
    table.lookup_batch(requests, expected);

    std::vector<server_id> actual(requests.size());
    ASSERT_TRUE(simd::set_active_kernel(GetParam()->name));
    table.lookup_batch(requests, actual);
    EXPECT_EQ(actual, expected)
        << "kernel " << GetParam()->name << " servers " << shape.servers;

    // The batch path must also agree with element-wise lookup under the
    // same kernel.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(table.lookup(requests[i]), expected[i])
          << "servers " << shape.servers << " request " << i;
    }
  }
}

std::string kernel_param_name(
    const ::testing::TestParamInfo<const simd::hamming_kernel*>& info) {
  return std::string(info.param->name);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiledKernels, KernelConformanceTest,
    ::testing::ValuesIn(simd::compiled_kernels().begin(),
                        simd::compiled_kernels().end()),
    kernel_param_name);

TEST(KernelDispatchTest, RegistryIsConsistent) {
  // Scalar is always compiled in, always supported, and every
  // compiled-in kernel is findable by its own name.
  const simd::hamming_kernel* scalar = simd::find_kernel("scalar");
  ASSERT_NE(scalar, nullptr);
  EXPECT_TRUE(scalar->supported());
  for (const simd::hamming_kernel* k : simd::compiled_kernels()) {
    EXPECT_EQ(simd::find_kernel(k->name), k);
  }
  EXPECT_EQ(simd::find_kernel("no-such-kernel"), nullptr);
  EXPECT_FALSE(simd::set_active_kernel("no-such-kernel"));
}

TEST(KernelDispatchTest, ActiveKernelIsSupportedAndOverridable) {
  simd::reset_active_kernel();
  const simd::hamming_kernel& chosen = simd::active_kernel();
  EXPECT_TRUE(chosen.supported());
  ASSERT_TRUE(simd::set_active_kernel("scalar"));
  EXPECT_EQ(simd::active_kernel().name, "scalar");
  simd::reset_active_kernel();
}

}  // namespace
}  // namespace hdhash
