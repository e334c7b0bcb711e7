// Counting replacements of the global allocation functions. Every heap
// allocation in the benchmark process — the simulator's pools included —
// passes through here, so process.allocs_per_op needs no hook in src/.
// The process is single-threaded (main.cpp checks), so plain counters do.
#include <cstdlib>
#include <new>

#include "rmcbench.hpp"

namespace {

std::uint64_t g_calls = 0;
std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t n) {
  ++g_calls;
  g_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++g_calls;
  g_bytes += n;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace rmcbench {

AllocCount alloc_count() { return {g_calls, g_bytes}; }

}  // namespace rmcbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
