#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_count{0};
std::atomic<int64_t> g_bytes{0};

void* Allocate(std::size_t size) {
  if (g_enabled.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Counts Read() {
  return Counts{g_count.load(std::memory_order_relaxed),
                g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::alloc

void* operator new(std::size_t size) {
  void* p = perfbench::alloc::Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = perfbench::alloc::Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::alloc::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::alloc::Allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
