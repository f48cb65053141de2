// PhysArena — the physical-memory substrate behind page aliasing.
//
// The paper's Insight 1: "Mapping multiple virtual pages to the same physical
// page enables us to set the permissions on each individual virtual page
// separately while still allowing use and reuse of the entire physical page
// via different virtual pages."
//
// The arena owns an anonymous in-memory file (memfd). The *canonical* view is
// one large MAP_SHARED mapping of that file: this is the heap the underlying
// allocator manages, and its length is exactly the program's physical memory
// consumption. A *shadow* view of any canonical page is just another
// MAP_SHARED mapping of the same file offset — two virtual pages, one
// physical page. Protecting the shadow page (PROT_NONE on free) does not
// affect the canonical page, so the allocator can keep recycling the
// physical memory while every dangling pointer through the shadow address
// traps.
//
// Each alias is one VMA of its own: aliases of non-adjacent file offsets
// never merge, and a PROT_NONE alias still maps the file. Burying a freed
// shadow span instead (try_bury: an anonymous PROT_NONE mapping over it)
// traps the same accesses, and adjacent buried spans merge into one VMA, so
// a process's VMA count tracks its live objects rather than its dead ones.
//
// The paper used Linux's (then undocumented) mremap(old_size = 0) to create
// the alias and noted that "on systems where this feature is not available,
// we can use mmap with an in-memory file system". memfd_create is the modern
// in-memory file system, so this is the primary strategy; shadow_map.h also
// provides the mremap flavour for comparison benchmarks.
//
// All kernel calls go through vm/sys.h (EINTR retry, fault injection, Result
// returns). The try_* entry points surface failures as errno Results for the
// guard layer's degradation machinery; the historical throwing wrappers
// remain for callers that treat failure as fatal (tests, benches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "vm/page.h"
#include "vm/sys.h"

namespace dpg::vm {

class VaFreeList;

class PhysArena {
 public:
  // Reserves `va_window` bytes of canonical virtual address space up front
  // (no physical commitment). The canonical heap can grow up to this bound.
  explicit PhysArena(std::size_t va_window = kDefaultWindow);
  ~PhysArena();

  PhysArena(const PhysArena&) = delete;
  PhysArena& operator=(const PhysArena&) = delete;

  // Grows the canonical heap by `bytes` (rounded up to whole pages) and
  // returns the canonical address of the new extent. On kernel refusal
  // (ftruncate ENOMEM) it releases every registered relief free list
  // (coalesce + munmap) and retries once before throwing std::bad_alloc.
  [[nodiscard]] void* extend(std::size_t bytes);

  // Physical memory consumed by the heap: the memfd length. This is the
  // number the paper claims stays (nearly) identical to the original program.
  [[nodiscard]] std::size_t physical_bytes() const noexcept;

  // True iff `p` lies inside the canonical view (mapped or reserved).
  [[nodiscard]] bool contains_canonical(const void* p) const noexcept;

  // File offset backing canonical address `p`. Precondition: contains_canonical(p).
  [[nodiscard]] std::size_t offset_of(const void* p) const noexcept;

  // Creates a shadow alias of the canonical pages covering
  // [canonical_page, canonical_page + len). `canonical_page` must be
  // page-aligned; len is rounded up to whole pages.
  //
  // If `fixed` is non-null the alias is placed exactly there with MAP_FIXED,
  // atomically replacing whatever mapping previously occupied the range —
  // this is how virtual pages recycled through the VA free-list are reused
  // without an munmap per object (Section 3.3).
  //
  // On mmap ENOMEM (typically vm.max_map_count exhaustion) the relief lists
  // are released and the mapping is retried once; a persistent refusal comes
  // back as an errno Result for the governor to act on.
  [[nodiscard]] sys::MapResult try_map_shadow(const void* canonical_page,
                                              std::size_t len,
                                              void* fixed = nullptr) noexcept;
  // Throwing wrapper (std::bad_alloc on failure) for fatal-failure callers.
  [[nodiscard]] void* map_shadow(const void* canonical_page, std::size_t len,
                                 void* fixed = nullptr);

  // Unmaps a shadow range (used at arena teardown and by explicit release).
  void unmap(void* p, std::size_t len) noexcept;

  // Page-protection primitives used on shadow pages at free / reuse.
  static sys::IoResult try_protect_none(void* p, std::size_t len) noexcept;
  // Revocation variant with the same ENOMEM posture as try_map_shadow:
  // mprotect(PROT_NONE) *splits* a VMA, so it hits vm.max_map_count just
  // like mmap does. On ENOMEM the relief lists are released (coalesce +
  // munmap of every recyclable shadow span) and the protect retried once.
  sys::IoResult try_revoke(void* p, std::size_t len) noexcept;
  // Graveyard revocation: replaces the span with an anonymous PROT_NONE
  // mapping (MAP_FIXED), same ENOMEM relief and single retry as try_revoke.
  // A dangling access traps exactly as on a PROT_NONE alias, but the span no
  // longer maps the arena file, so it merges with adjacent buried spans and
  // guard tails into one VMA whatever they used to alias, and the kernel
  // zaps its alias PTEs. Its canonical pages are gone from this address: a
  // buried span can only come back through a MAP_FIXED re-alias, never a
  // permission upgrade.
  sys::IoResult try_bury(void* p, std::size_t len) noexcept;
  static sys::IoResult try_protect_rw(void* p, std::size_t len) noexcept;
  static void protect_none(void* p, std::size_t len);  // throws system_error
  static void protect_rw(void* p, std::size_t len);    // throws system_error

  // Places an anonymous PROT_NONE page exactly at `fixed` (used for trailing
  // guard pages: it must NOT alias the arena, so a stray access can never
  // reach a neighbour's physical memory).
  static sys::IoResult try_map_guard(void* fixed, std::size_t len) noexcept;
  static void map_guard(void* fixed, std::size_t len);  // throws bad_alloc

  // --- VA pressure relief -----------------------------------------------
  // Shadow-VA free lists registered here are drained (coalesce + munmap)
  // when the kernel refuses an arena syscall with ENOMEM, releasing VMA
  // slots and address space before the single retry. Owners MUST deregister
  // before the free list dies. Only shadow lists are legal: canonical
  // extents live inside the arena window and must never be munmapped.
  void add_relief_source(VaFreeList* fl);
  void remove_relief_source(VaFreeList* fl) noexcept;
  // Drains every registered source now; returns bytes released.
  std::size_t release_relief() noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  static constexpr std::size_t kDefaultWindow = std::size_t{1} << 33;  // 8 GiB

 private:
  int fd_ = -1;
  std::byte* canon_base_ = nullptr;
  std::size_t window_ = 0;            // reserved canonical VA
  std::size_t length_ = 0;            // current file length (== mapped heap)
  mutable std::mutex mu_;
  std::mutex relief_mu_;
  std::vector<VaFreeList*> relief_;   // registered shadow free lists
};

}  // namespace dpg::vm
