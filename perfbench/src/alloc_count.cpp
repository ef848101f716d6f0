// Replacement global allocation functions that count heap allocations per
// thread (rl.train_allocs / rl.act_allocs). Linked into the benchmark
// executables only. The count is exact: every non-aligned operator new
// of the process goes through here.
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {
thread_local std::uint64_t tl_allocs = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++tl_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

std::uint64_t perfbench::thread_allocs() noexcept { return tl_allocs; }

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
