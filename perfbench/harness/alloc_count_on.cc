// Counting replacements for the global allocation functions. Replacement
// operator new must not be inline ([replacement.functions]), and the whole
// family is replaced so no variant bypasses the counter.
#include <atomic>
#include <cstdlib>
#include <new>

#include "harness/alloc_count.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) noexcept {
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

}  // namespace

bool AllocCountEnabled() { return true; }
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = perfbench::CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = perfbench::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
