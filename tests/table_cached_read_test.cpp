/// Cached reads allocate nothing: once a slot-cached table (or the
/// snapshot published from it) is warm, lookup_batch answers every
/// request from the slot cache without touching the heap.  This binary
/// replaces the global operator new/delete with counting versions, so
/// any allocation on that path — a dedup map, a temporary vector, a
/// scatter buffer — fails the test.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hd_table.hpp"
#include "exp/factory.hpp"
#include "hashing/splitmix_hash.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto alignment = std::max(static_cast<std::size_t>(align),
                                  sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so that no allocation escapes the count and
// every block is freed by the allocator that made it (a sanitizer
// runtime brings its own forms and would otherwise pair them with ours).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hdhash {
namespace {

std::vector<request_id> request_block(std::size_t count) {
  std::vector<request_id> block;
  block.reserve(count);
  xoshiro256 rng(0xca5e);
  for (std::size_t i = 0; i < count; ++i) {
    block.push_back(splitmix_hash::mix(rng()));
  }
  return block;
}

/// Heap allocations made by one lookup_batch call.
std::size_t allocations_of(const dynamic_table& table,
                           std::span<const request_id> requests,
                           std::span<server_id> out) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  table.lookup_batch(requests, out);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(CountingAllocatorTest, CountsEveryForm) {
  const std::size_t before = g_allocations.load();
  delete new int(1);
  delete[] new int[4];
  delete new (std::nothrow) int(2);
  std::vector<int> grown;
  grown.reserve(16);
  EXPECT_EQ(g_allocations.load() - before, 4u);
}

class CachedReadTest : public ::testing::TestWithParam<std::string_view> {
 protected:
  /// A slot-cached table of the parameter's algorithm: 64 servers,
  /// capacity 512, d = 10,000.
  std::unique_ptr<dynamic_table> make_cached_table() const {
    table_options options;
    options.hd.capacity = 512;
    options.hd.slot_cache = true;
    auto table = make_table(GetParam(), options);
    for (server_id s = 1; s <= 64; ++s) {
      table->join(s * 1009);
    }
    return table;
  }
};

INSTANTIATE_TEST_SUITE_P(SlotCached, CachedReadTest,
                         ::testing::Values("hd", "hd-hierarchical"),
                         [](const auto& info) {
                           std::string name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(CachedReadTest, SnapshotBatchAllocatesNothing) {
  const auto table = make_cached_table();
  const auto snapshot = table->snapshot();
  const auto requests = request_block(256);
  std::vector<server_id> first(requests.size());
  std::vector<server_id> second(requests.size());
  snapshot->lookup_batch(requests, first);
  EXPECT_EQ(allocations_of(*snapshot, requests, second), 0u);
  EXPECT_EQ(second, first);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(second[i], snapshot->lookup(requests[i])) << "request " << i;
  }
}

TEST_P(CachedReadTest, WarmLiveTableBatchAllocatesNothing) {
  const auto table = make_cached_table();
  if (const auto* flat = dynamic_cast<const hd_table*>(table.get())) {
    flat->warm_slot_cache();
  }
  const auto requests = request_block(256);
  std::vector<server_id> first(requests.size());
  std::vector<server_id> second(requests.size());
  // The first call resolves whatever slots the block touches that are
  // still cold (the hierarchy's groups have no warm_slot_cache()).
  table->lookup_batch(requests, first);
  EXPECT_EQ(allocations_of(*table, requests, second), 0u);
  EXPECT_EQ(second, first);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(second[i], table->lookup(requests[i])) << "request " << i;
  }
}

}  // namespace
}  // namespace hdhash
