/// \file counting_allocator.hpp
/// \brief Test support: replaces the global operator new/delete with
/// counting versions, so a test can assert that a code path makes no
/// heap allocation (`g_allocations` before and after).  It defines the
/// replaceable allocation functions, so include it from exactly one
/// translation unit of a test binary.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace hdhash::testing {

/// Allocations made through any form of global operator new so far.
inline std::atomic<std::size_t> g_allocations{0};

inline void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

inline void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto alignment = std::max(static_cast<std::size_t>(align),
                                  sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace hdhash::testing

// Every replaceable form, so that no allocation escapes the count and
// every block is freed by the allocator that made it (a sanitizer
// runtime brings its own forms and would otherwise pair them with ours).
void* operator new(std::size_t size) {
  return hdhash::testing::counted_alloc(size);
}
void* operator new[](std::size_t size) {
  return hdhash::testing::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return hdhash::testing::counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return hdhash::testing::counted_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return hdhash::testing::counted_alloc(size);
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
    return hdhash::testing::counted_alloc(size, align);
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
