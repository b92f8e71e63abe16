// Test helper: counts every heap allocation in a test binary and sums the
// bytes they request, so a test can assert that a warmed-up window
// allocates nothing, or that a set-up step stays under a byte budget.
//
// The header replaces the global operator new and delete, which a program
// may define only once: include it from the one source file of a test
// binary. Every form of new counts and allocates with std::malloc, and
// every form of delete frees with std::free, so no block crosses between
// this hook and the library's allocator or a sanitizer's, which would
// report the mismatched pair. The nothrow forms are replaced for that
// reason too (std::stable_sort's temporary buffer uses them). No type in
// this repository is over-aligned, so the std::align_val_t forms stay the
// library's, with their own deletes. The two roots are noinline: inlined
// into a caller, GCC pairs the visible std::free with the library's
// operator new declaration and warns -Wmismatched-new-delete.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace ups::testing {

// Heap allocations so far in this process.
inline std::atomic<std::uint64_t> heap_allocations{0};

// Bytes those allocations requested (frees are not subtracted).
inline std::atomic<std::uint64_t> heap_bytes{0};

// Heap allocations made while fn runs.
template <class Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = heap_allocations.load(std::memory_order_relaxed);
  fn();
  return heap_allocations.load(std::memory_order_relaxed) - before;
}

// Bytes requested by the allocations made while fn runs.
template <class Fn>
std::uint64_t bytes_during(Fn&& fn) {
  const std::uint64_t before = heap_bytes.load(std::memory_order_relaxed);
  fn();
  return heap_bytes.load(std::memory_order_relaxed) - before;
}

}  // namespace ups::testing

__attribute__((noinline)) void* operator new(std::size_t n,
                                             const std::nothrow_t&) noexcept {
  ups::testing::heap_allocations.fetch_add(1, std::memory_order_relaxed);
  ups::testing::heap_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n) {
  if (void* p = ::operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
