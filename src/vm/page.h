// Page-granularity helpers shared by every layer of dpguard.
//
// The paper's mechanism is page-granular: one shadow *virtual* page (or run
// of pages) per allocation, aliased onto the canonical physical page. All
// address arithmetic below mirrors Section 3.2 of the paper:
//   Page(a)   = a & ~(2^p - 1)
//   Offset(a) = a &  (2^p - 1)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpg::vm {

// We assume 4 KiB pages (asserted against sysconf at runtime in PhysArena).
inline constexpr std::size_t kPageSize = 4096;
inline constexpr std::size_t kPageShift = 12;
inline constexpr std::uintptr_t kPageMask = kPageSize - 1;

[[nodiscard]] constexpr std::uintptr_t page_down(std::uintptr_t a) noexcept {
  return a & ~kPageMask;
}
[[nodiscard]] constexpr std::uintptr_t page_up(std::uintptr_t a) noexcept {
  return (a + kPageMask) & ~kPageMask;
}
[[nodiscard]] constexpr std::uintptr_t page_offset(std::uintptr_t a) noexcept {
  return a & kPageMask;
}
[[nodiscard]] constexpr std::size_t pages_for(std::size_t bytes) noexcept {
  return (bytes + kPageSize - 1) / kPageSize;
}

template <typename T>
[[nodiscard]] std::uintptr_t addr(const T* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p);
}

// A contiguous, page-aligned range of virtual addresses.
struct PageRange {
  std::uintptr_t base = 0;  // page-aligned
  std::size_t length = 0;   // multiple of kPageSize

  [[nodiscard]] std::uintptr_t end() const noexcept { return base + length; }
  [[nodiscard]] std::size_t pages() const noexcept { return length / kPageSize; }
  [[nodiscard]] bool contains(std::uintptr_t a) const noexcept {
    return a >= base && a < end();
  }
  friend bool operator==(const PageRange&, const PageRange&) = default;
};

// Sorts `ranges` by base and merges address neighbours in place, so each
// contiguous run becomes one range.
inline void coalesce(std::vector<PageRange>& ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const PageRange& a, const PageRange& b) {
              return a.base < b.base;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (out != 0 && ranges[out - 1].end() == ranges[i].base) {
      ranges[out - 1].length += ranges[i].length;
    } else {
      ranges[out++] = ranges[i];
    }
  }
  ranges.resize(out);
}

}  // namespace dpg::vm
