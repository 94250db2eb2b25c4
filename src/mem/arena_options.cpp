#include "mem/arena_options.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/require.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hdhash::mem {

std::string_view to_string(mem_backing backing) noexcept {
  switch (backing) {
    case mem_backing::huge:
      return "huge";
    case mem_backing::thp:
      return "thp";
    case mem_backing::page:
      return "page";
    case mem_backing::heap:
      return "heap";
  }
  return "heap";
}

std::string_view to_string(mem_request request) noexcept {
  switch (request) {
    case mem_request::automatic:
      return "auto";
    case mem_request::huge:
      return "huge";
    case mem_request::thp:
      return "thp";
    case mem_request::page:
      return "page";
  }
  return "auto";
}

std::optional<mem_request> parse_mem_request(std::string_view name) {
  if (name.empty() || name == "auto") {
    return mem_request::automatic;
  }
  if (name == "huge") {
    return mem_request::huge;
  }
  if (name == "thp") {
    return mem_request::thp;
  }
  if (name == "page") {
    return mem_request::page;
  }
  return std::nullopt;
}

namespace {

// The program's override: a sentinel value means "not set".
// A plain atomic int keeps select_mem_request() callable from any
// thread without a lock.
constexpr int kNoOverride = -1;
std::atomic<int> g_override{kNoOverride};

}  // namespace

void set_mem_request_override(mem_request request) {
  g_override.store(static_cast<int>(request), std::memory_order_relaxed);
}

void clear_mem_request_override() noexcept {
  g_override.store(kNoOverride, std::memory_order_relaxed);
}

mem_request select_mem_request() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced != kNoOverride) {
    return static_cast<mem_request>(forced);
  }
  const char* env = std::getenv("HDHASH_MEM");
  const std::string choice = env == nullptr ? "auto" : env;
  const std::optional<mem_request> parsed = parse_mem_request(choice);
  HDHASH_REQUIRE(parsed.has_value(),
                 "HDHASH_MEM must be one of auto|huge|thp|page");
  return *parsed;
}

namespace {

void* system_map(std::size_t bytes, mem_backing kind) {
#if defined(__linux__)
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
  if (kind == mem_backing::huge) {
    flags |= MAP_HUGETLB;
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (base == MAP_FAILED) {
    return nullptr;
  }
  if (kind == mem_backing::thp) {
    // THP is advisory: the advice failing (THP compiled out or set to
    // `never`) means this kind is unavailable, not "silently take 4KB
    // pages" — the auto chain handles the degradation visibly.
    if (::madvise(base, bytes, MADV_HUGEPAGE) != 0) {
      ::munmap(base, bytes);
      return nullptr;
    }
  }
  return base;
#else
  // Non-Linux hosts have neither MAP_HUGETLB nor MADV_HUGEPAGE; only
  // plain pages are mappable, via the portable aligned allocator
  // (chunk sizes are always multiples of the 4KB small page).
  if (kind != mem_backing::page) {
    return nullptr;
  }
  void* base = std::aligned_alloc(4096, bytes);
  if (base != nullptr) {
    std::memset(base, 0, bytes);
  }
  return base;
#endif
}

void system_unmap(void* base, std::size_t bytes) {
#if defined(__linux__)
  ::munmap(base, bytes);
#else
  (void)bytes;
  std::free(base);
#endif
}

}  // namespace

const map_backend& system_map_backend() {
  static const map_backend backend{&system_map, &system_unmap};
  return backend;
}

}  // namespace hdhash::mem
