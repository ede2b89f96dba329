// Counting global allocator — the dmra_alloc_count library.
//
// Link this library ONLY into binaries that measure allocations
// (tests/core/alloc_test): its strong operator new/delete definitions
// replace the toolchain's for the whole binary.
// Each operator new bumps a thread-local counter that the alloc_hook
// probe exposes; deletes are free. Call dmra::allocprobe::install() once
// at startup to publish the probe.
//
// Counting is per-thread and allocation-count-based (not bytes), so a
// deterministic single-threaded run reports a deterministic number that
// CI can hard-fail on.

#include "util/alloc_count.hpp"

#include <cstdlib>
#include <new>

#include "util/alloc_hook.hpp"

namespace dmra::allocprobe {

namespace {
thread_local std::uint64_t tl_news = 0;

std::uint64_t read_tl() noexcept { return tl_news; }

void* alloc_or_throw(std::size_t n) {
  ++tl_news;
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* alloc_aligned(std::size_t n, std::size_t align) {
  ++tl_news;
  if (n == 0) n = 1;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void install() noexcept { alloc_hook::set_probe(&read_tl); }

std::uint64_t thread_count() noexcept { return tl_news; }

}  // namespace dmra::allocprobe

void* operator new(std::size_t n) { return dmra::allocprobe::alloc_or_throw(n); }
void* operator new[](std::size_t n) { return dmra::allocprobe::alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++dmra::allocprobe::tl_news;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++dmra::allocprobe::tl_news;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return dmra::allocprobe::alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return dmra::allocprobe::alloc_aligned(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
