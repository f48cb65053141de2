// Allocator-facing interfaces.
//
// A key practical claim of the paper (Section 3.2) is that the remapping
// scheme "can work with an arbitrary memory allocator ... the underlying
// allocator is completely unaware of the page remapping". We enforce that
// separation structurally: allocators implement MallocLike and draw pages
// from a CanonicalSource; the guard layer in src/core wraps a MallocLike
// without the allocator's knowledge.
#pragma once

#include <cstddef>

#include "vm/page.h"
#include "vm/phys_arena.h"
#include "vm/va_freelist.h"

namespace dpg::alloc {

// The classic malloc/free/usable-size contract. size_of() reports the
// payload size recorded in the allocator's own header metadata — the guard
// layer reads it at free time to know how many shadow pages to protect,
// exactly as the paper reads "the size of the object using the metadata
// recorded by malloc".
class MallocLike {
 public:
  virtual ~MallocLike() = default;
  [[nodiscard]] virtual void* malloc(std::size_t size) = 0;
  virtual void free(void* p) = 0;
  [[nodiscard]] virtual std::size_t size_of(const void* p) const = 0;
};

// Where an allocator's pages come from. Implementations:
//   ArenaSource — canonical pages inside a PhysArena (guarded configurations);
//                 recycled extents go through a shared free list so destroyed
//                 pools donate their canonical pages to future pools.
//   MmapSource  — plain anonymous mmap (unguarded configurations: native-ish
//                 and "pool allocation only" baselines).
class CanonicalSource {
 public:
  virtual ~CanonicalSource() = default;
  [[nodiscard]] virtual vm::PageRange obtain(std::size_t bytes) = 0;
  virtual void recycle(vm::PageRange range) = 0;
};

class ArenaSource final : public CanonicalSource {
 public:
  explicit ArenaSource(vm::PhysArena& arena) : arena_(arena) {}

  [[nodiscard]] vm::PageRange obtain(std::size_t bytes) override {
    if (auto reused = freelist_.take(bytes)) return *reused;
    void* extent = arena_.extend(bytes);
    return vm::PageRange{vm::addr(extent), vm::page_up(bytes)};
  }

  void recycle(vm::PageRange range) override { freelist_.put(range); }

  [[nodiscard]] vm::PhysArena& arena() noexcept { return arena_; }
  [[nodiscard]] std::size_t recyclable_bytes() const { return freelist_.bytes(); }

 private:
  vm::PhysArena& arena_;
  // Canonical extents of destroyed pools. Borrowed: they lie inside the
  // arena's canonical mapping, which this list must never trim or unmap.
  vm::VaFreeList freelist_{vm::VaFreeList::Ranges::kBorrowed};
};

// Anonymous-memory source; recycled ranges are kept on a free list too so the
// "PA only" configuration reuses pages the way the real pool runtime does.
class MmapSource final : public CanonicalSource {
 public:
  MmapSource() = default;
  ~MmapSource() override;
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  [[nodiscard]] vm::PageRange obtain(std::size_t bytes) override;
  void recycle(vm::PageRange range) override { freelist_.put(range); }

 private:
  vm::VaFreeList freelist_;
  std::size_t mapped_bytes_ = 0;
};

}  // namespace dpg::alloc
