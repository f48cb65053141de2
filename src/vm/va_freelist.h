// VaFreeList — the shared free list of recyclable virtual pages (Section 3.3).
//
// "We avoid the explicit munmap calls by maintaining a free list of virtual
//  pages shared across pools and adding all pool pages to this free list at a
//  pool destroy."
//
// Ranges pushed here remain *mapped* (shadow pages stay buried, PROT_NONE or
// RW aliases; canonical pages stay RW); a consumer takes an address and
// mmap(MAP_FIXED)s a new mapping directly over it, which atomically replaces
// the old one — no munmap per object ever happens on the hot path. What a
// held range costs in VMAs depends on what it holds: a buried span (anonymous
// PROT_NONE, see PhysArena::try_bury) merges with adjacent buried spans, an
// alias is one VMA of its own.
//
// Two indexes share one range count and one byte total:
//
//   plain  Ranges bucketed by page count (put). take() prefers an exact
//          bucket and otherwise splits the smallest larger range, returning
//          the remainder to the list. No coalescing is attempted: pool pages
//          re-enter the list in the same granularity they leave it, so
//          fragmentation is bounded in practice (the property tests exercise
//          this).
//   keyed  Shadow spans parked by the arena file offset they alias and their
//          page count (park). Such a span still maps exactly those canonical
//          pages, so a consumer that needs an alias of the same pages takes
//          it with take_alias() and keeps the mapping: zero syscalls when the
//          span was read-write at release (its object was still live at
//          pooldestroy), one mprotect(PROT_READ|PROT_WRITE) when it was
//          revoked. That upgrade only adds permissions — no VMA is replaced,
//          no PTE zapped, nothing refaults — where the MAP_FIXED remap it
//          replaces paid all three. On a keyed miss, take()/take_exact()
//          convert a keyed span of the requested size (the caller remaps it
//          MAP_FIXED) before splitting a larger plain range, so the number of
//          parked spans stays bounded by peak demand.
//
// Keyed reuse is as safe as plain reuse because it rests on the same proof:
// a span is parked only after its owner showed no pointer into it survives
// (pooldestroy, or budget/GC reclamation of an mprotect-revoked object; a
// buried span aliases nothing and is never parked). The new owner
// receives an alias of its own canonical pages — what a fresh mmap would
// have produced — and its frees revoke the span exactly as before. The list
// already held these read-write and PROT_NONE aliases before keying; keying
// only lets the next owner of the same canonical pages skip the remap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "vm/page.h"

namespace dpg::vm {

class VaFreeList {
 public:
  // Who owns the mappings behind held ranges.
  //   kOwned     the list does: trim, relief and teardown munmap them (shadow
  //              aliases, anonymous extents).
  //   kBorrowed  a PhysArena does (canonical extents inside its window):
  //              unmapping one would split the canonical VMA and orphan its
  //              memfd pages, so the list never trims, and release_all() and
  //              teardown only forget the ranges.
  enum class Ranges { kOwned, kBorrowed };

  explicit VaFreeList(Ranges ranges = Ranges::kOwned);
  // Owned ranges are still-mapped PROT_NONE/RW spans; munmap them so a
  // destroyed owner (heap, pool context) hands its addresses back to the
  // kernel instead of leaking one VMA per range for the process lifetime.
  ~VaFreeList();

  VaFreeList(const VaFreeList&) = delete;
  VaFreeList& operator=(const VaFreeList&) = delete;

  // Donates a mapped, page-aligned range for future reuse. A held alias is
  // one live VMA (a buried range may share one with its neighbours), and
  // vm.max_map_count is a hard per-process limit that even munmap needs
  // headroom under (an interior unmap must *split* a VMA to proceed) — so
  // when the held-range count crosses a high-water mark, put() drains the
  // entire list through the coalescing release_all() path.
  // Trimming proactively keeps the list's VMA footprint bounded long before
  // the emergency valve, which only runs once the kernel already refused.
  // A kBorrowed list never trims.
  void put(PageRange range);

  // A shadow span that still aliases the arena file at byte `offset`;
  // `rw` = still read-write (not revoked).
  struct Alias {
    PageRange range;
    std::size_t offset = 0;
    bool rw = false;
  };

  // Parks shadow spans on the keyed index, under one lock acquisition for
  // the whole batch (a pooldestroy parks every span of the pool at once).
  // Counts toward the trim high-water mark like put().
  void park(std::span<const Alias> aliases);

  // Takes a parked span aliasing exactly page_up(len) bytes at file
  // `offset`, or nothing. Never converts, splits or remaps.
  [[nodiscard]] std::optional<Alias> take_alias(std::size_t offset,
                                                std::size_t len);

  // High-water range count at which put() triggers a coalesced full drain.
  // Default kDefaultTrimLimit; 0 restores the unbounded pre-trim behaviour.
  void set_trim_limit(std::size_t ranges) noexcept;
  static constexpr std::size_t kDefaultTrimLimit = 16384;

  // Full drains triggered by the high-water trim (not emergency relief /
  // teardown release_all calls), this instance.
  [[nodiscard]] std::size_t trims() const;

  // Takes a range of at least `len` bytes (rounded to pages); returns exactly
  // page_up(len) bytes. Order: an exact plain range, then any keyed span of
  // exactly that size (the caller's MAP_FIXED converts it), then a split of
  // the smallest larger plain range.
  [[nodiscard]] std::optional<PageRange> take(std::size_t len);

  // Exact-fit take: returns a range of exactly page_up(len) bytes or nothing —
  // never splits a larger donor. The magazine path uses this for
  // magazine-sized spans so a miss falls through to a fresh mmap instead of
  // shredding a big recycled run into slot-sized fragments (and, symmetrically,
  // single-page takes keep their existing split-the-smallest behaviour: the
  // two request streams coexist in one list without fragmenting each other).
  [[nodiscard]] std::optional<PageRange> take_exact(std::size_t len);

  // Total recyclable bytes currently held (both indexes).
  [[nodiscard]] std::size_t bytes() const;

  // Number of ranges held, both indexes (diagnostics).
  [[nodiscard]] std::size_t ranges() const;

  // Emergency/teardown release: drains every held range of both indexes,
  // coalesces adjacent ranges, and munmaps the merged spans through the
  // syscall shim — one munmap per contiguous run instead of one per range.
  // Returns the bytes handed back (0 for a kBorrowed list, which only
  // forgets). This is the VMA-pressure relief valve PhysArena pulls when the
  // kernel refuses mmap/ftruncate with ENOMEM.
  std::size_t release_all() noexcept;

  // Drains every held range of both indexes, invoking `release(range)` on
  // each (used at teardown to hand the addresses back to the kernel).
  template <typename Fn>
  void drain(Fn&& release) {
    std::vector<PageRange> all;
    {
      std::lock_guard lock(mu_);
      all = take_all_locked();
    }
    for (const PageRange& r : all) release(r);
  }

 private:
  // Keyed index: parked spans live in nodes_, each on two intrusive doubly
  // linked lists — its key's chain (take_alias) and its page count's FIFO
  // (the same-size conversion in take()) — so every operation is O(1).
  static constexpr std::uint32_t kNil = UINT32_MAX;
  struct Node {
    Alias alias;
    std::uint32_t key_prev, key_next;
    std::uint32_t size_prev, size_next;
  };
  struct Key {
    std::size_t offset;
    std::size_t pages;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return (k.offset >> kPageShift) * 0x9E3779B97F4A7C15ull ^ k.pages;
    }
  };
  struct SizeFifo {
    std::uint32_t head = kNil;  // newest
    std::uint32_t tail = kNil;  // oldest: converted first
  };

  std::vector<PageRange> take_all_locked();
  // Trim bookkeeping shared by both indexes. over_water_locked runs once per
  // donation (put, or a whole park batch) and returns true when the
  // high-water trim must fire (after the lock is dropped); sub_locked
  // accounts a take.
  [[nodiscard]] bool over_water_locked() noexcept;
  void sub_locked(std::size_t bytes, std::size_t ranges) noexcept;
  [[nodiscard]] std::optional<PageRange> take_plain_exact_locked(
      std::size_t pages);
  [[nodiscard]] std::optional<PageRange> take_keyed_by_size_locked(
      std::size_t pages);
  void unlink_keyed_locked(std::uint32_t n);

  const Ranges ranges_;
  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<std::uintptr_t>> buckets_;  // pages -> bases
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::unordered_map<Key, std::uint32_t, KeyHash> by_key_;  // -> newest node
  std::unordered_map<std::size_t, SizeFifo> by_size_;       // pages -> FIFO
  std::size_t bytes_ = 0;
  std::size_t count_ = 0;                    // held ranges
  std::size_t trim_limit_ = kDefaultTrimLimit;
  std::size_t trims_ = 0;                    // high-water drains fired
};

}  // namespace dpg::vm
