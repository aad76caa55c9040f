// Counting replacement of the global operator new, for tests that pin how
// often and how much the program allocates.
//
// It forwards to malloc/free and counts every allocation and its bytes
// (operator new[] forwards to operator new, so arrays count too). The
// functions are the program's one replacement: include this header in one
// translation unit of a test executable only.
//
// Sanitizers own operator new: under them the replacement stays out,
// PFSC_SANITIZED is defined and the counting tests skip.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PFSC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PFSC_SANITIZED 1
#endif
#endif

namespace pfsc::counting {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::uint64_t> g_allocated_bytes{0};

/// Allocations and bytes counted so far.
struct HeapCount {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};
inline HeapCount heap_count() {
  return {g_allocations.load(std::memory_order_relaxed),
          g_allocated_bytes.load(std::memory_order_relaxed)};
}

}  // namespace pfsc::counting

// Not inlined: gcc would otherwise see `free` applied to a pointer from
// `operator new` at call sites and warn (-Wmismatched-new-delete).
#ifndef PFSC_SANITIZED
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  pfsc::counting::g_allocations.fetch_add(1, std::memory_order_relaxed);
  pfsc::counting::g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif
