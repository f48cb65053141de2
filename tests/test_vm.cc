// Unit tests for the virtual-memory substrate: page math, the memfd arena,
// physical aliasing, page protection, MAP_FIXED reuse, the mremap strategy,
// and the VA free list.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "vm/page.h"
#include "vm/phys_arena.h"
#include "vm/shadow_map.h"
#include "vm/va_freelist.h"
#include "vm/vm_stats.h"

namespace dpg::vm {
namespace {

TEST(PageMath, RoundingAndOffsets) {
  EXPECT_EQ(page_down(0x1234), 0x1000u);
  EXPECT_EQ(page_down(0x1000), 0x1000u);
  EXPECT_EQ(page_up(0x1001), 0x2000u);
  EXPECT_EQ(page_up(0x1000), 0x1000u);
  EXPECT_EQ(page_up(0), 0u);
  EXPECT_EQ(page_offset(0x1234), 0x234u);
  EXPECT_EQ(pages_for(1), 1u);
  EXPECT_EQ(pages_for(4096), 1u);
  EXPECT_EQ(pages_for(4097), 2u);
  EXPECT_EQ(pages_for(0), 0u);
}

TEST(PageRange, ContainsAndEnd) {
  const PageRange r{0x10000, 2 * kPageSize};
  EXPECT_EQ(r.end(), 0x10000u + 2 * kPageSize);
  EXPECT_EQ(r.pages(), 2u);
  EXPECT_TRUE(r.contains(0x10000));
  EXPECT_TRUE(r.contains(0x10000 + 2 * kPageSize - 1));
  EXPECT_FALSE(r.contains(0x10000 + 2 * kPageSize));
  EXPECT_FALSE(r.contains(0xFFFF));
}

TEST(PageRange, CoalesceMergesAddressNeighbours) {
  std::vector<PageRange> v{{0x30000, kPageSize},
                           {0x10000, kPageSize},
                           {0x11000, 2 * kPageSize},
                           {0x2F000, kPageSize},
                           {0x50000, kPageSize}};
  coalesce(v);
  const std::vector<PageRange> want{{0x10000, 3 * kPageSize},
                                    {0x2F000, 2 * kPageSize},
                                    {0x50000, kPageSize}};
  EXPECT_EQ(v, want);
}

TEST(PhysArena, ExtendGrowsPhysicalBytes) {
  PhysArena arena(1u << 24);
  EXPECT_EQ(arena.physical_bytes(), 0u);
  void* a = arena.extend(100);
  EXPECT_EQ(arena.physical_bytes(), kPageSize);
  void* b = arena.extend(2 * kPageSize);
  EXPECT_EQ(arena.physical_bytes(), 3 * kPageSize);
  EXPECT_NE(a, b);
  EXPECT_TRUE(arena.contains_canonical(a));
  EXPECT_TRUE(arena.contains_canonical(b));
}

TEST(PhysArena, ExtentsAreContiguousAndWritable) {
  PhysArena arena(1u << 24);
  auto* a = static_cast<std::byte*>(arena.extend(kPageSize));
  auto* b = static_cast<std::byte*>(arena.extend(kPageSize));
  EXPECT_EQ(a + kPageSize, b);
  std::memset(a, 0x5A, kPageSize);
  std::memset(b, 0xA5, kPageSize);
  EXPECT_EQ(static_cast<unsigned char>(a[kPageSize - 1]), 0x5A);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xA5);
}

TEST(PhysArena, OffsetOfMatchesExtensionOrder) {
  PhysArena arena(1u << 24);
  void* a = arena.extend(kPageSize);
  void* b = arena.extend(kPageSize);
  EXPECT_EQ(arena.offset_of(a), 0u);
  EXPECT_EQ(arena.offset_of(b), kPageSize);
}

TEST(PhysArena, ShadowAliasesPhysicalMemory) {
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(canonical, kPageSize));
  ASSERT_NE(shadow, nullptr);
  EXPECT_NE(shadow, canonical);

  // Writes through one view are visible through the other: one physical page.
  std::strcpy(canonical, "via canonical");
  EXPECT_STREQ(shadow, "via canonical");
  std::strcpy(shadow + 100, "via shadow");
  EXPECT_STREQ(canonical + 100, "via shadow");
  arena.unmap(shadow, kPageSize);
}

TEST(PhysArena, MultiPageShadowSpan) {
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(3 * kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(canonical, 3 * kPageSize));
  canonical[3 * kPageSize - 1] = 'z';
  EXPECT_EQ(shadow[3 * kPageSize - 1], 'z');
  arena.unmap(shadow, 3 * kPageSize);
}

TEST(PhysArena, ProtectNoneBlocksShadowButNotCanonical) {
  PhysArena arena(1u << 24);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(canonical, kPageSize));
  canonical[0] = 'x';
  PhysArena::protect_none(shadow, kPageSize);
  // The canonical view still works even though the shadow is protected.
  canonical[0] = 'y';
  EXPECT_EQ(canonical[0], 'y');
  PhysArena::protect_rw(shadow, kPageSize);
  EXPECT_EQ(shadow[0], 'y');
  arena.unmap(shadow, kPageSize);
}

TEST(PhysArena, MapFixedReplacesOldMapping) {
  PhysArena arena(1u << 24);
  auto* c1 = static_cast<char*>(arena.extend(kPageSize));
  auto* c2 = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(arena.map_shadow(c1, kPageSize));
  c1[0] = '1';
  c2[0] = '2';
  EXPECT_EQ(shadow[0], '1');
  // Protect, then reuse the same VA for a different canonical page.
  PhysArena::protect_none(shadow, kPageSize);
  auto* again = static_cast<char*>(arena.map_shadow(c2, kPageSize, shadow));
  EXPECT_EQ(again, shadow);
  EXPECT_EQ(shadow[0], '2');  // now aliases c2, and is RW again
  arena.unmap(shadow, kPageSize);
}

// Number of /proc/self/maps entries that overlap [lo, hi).
std::size_t mappings_in(std::uintptr_t lo, std::uintptr_t hi) {
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return 0;
  std::size_t n = 0;
  unsigned long a = 0, b = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "%lx-%lx", &a, &b) == 2 && a < hi && b > lo) ++n;
  }
  std::fclose(f);
  return n;
}

// Three neighbouring aliases of non-adjacent file offsets: revoked by
// mprotect they stay three mappings, buried they become one, and the span
// can be aliased again in place.
TEST(PhysArena, BuriedNeighboursMergeIntoOneMapping) {
  PhysArena arena(1u << 24);
  auto* canon = static_cast<char*>(arena.extend(6 * kPageSize));
  const std::size_t region_len = 3 * kPageSize;
  auto* region = static_cast<char*>(
      mmap(nullptr, region_len, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
  ASSERT_NE(region, MAP_FAILED);
  const std::uintptr_t lo = addr(region);
  const std::uintptr_t hi = lo + region_len;
  for (int i = 0; i < 3; ++i) {
    (void)arena.map_shadow(canon + 2 * i * kPageSize, kPageSize,
                           region + i * kPageSize);
    region[i * kPageSize] = static_cast<char>('a' + i);
  }
  EXPECT_EQ(mappings_in(lo, hi), 3u);
  PhysArena::protect_none(region, region_len);
  EXPECT_EQ(mappings_in(lo, hi), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(arena.try_bury(region + i * kPageSize, kPageSize).ok());
  }
  EXPECT_EQ(mappings_in(lo, hi), 1u);
  EXPECT_EQ(canon[2 * kPageSize], 'b');  // canonical memory untouched
  auto* again = static_cast<char*>(
      arena.map_shadow(canon + 4 * kPageSize, kPageSize, region + kPageSize));
  EXPECT_EQ(again[0], 'c');
  munmap(region, region_len);
}

TEST(PhysArena, ExhaustionThrowsBadAlloc) {
  PhysArena arena(4 * kPageSize);
  (void)arena.extend(3 * kPageSize);
  EXPECT_THROW((void)arena.extend(2 * kPageSize), std::bad_alloc);
}

TEST(ShadowMapper, MemfdStrategyAliases) {
  PhysArena arena(1u << 24);
  ShadowMapper mapper(arena, AliasStrategy::kMemfd);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(mapper.alias(canonical, kPageSize));
  canonical[7] = 'q';
  EXPECT_EQ(shadow[7], 'q');
  arena.unmap(shadow, kPageSize);
}

TEST(ShadowMapper, MremapStrategyAliasesWhenSupported) {
  if (!ShadowMapper::mremap_alias_supported()) {
    GTEST_SKIP() << "kernel rejects mremap(old_size=0) duplication";
  }
  PhysArena arena(1u << 24);
  ShadowMapper mapper(arena, AliasStrategy::kMremap);
  const auto mremaps_before =
      syscall_counters().mremap.load(std::memory_order_relaxed);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(mapper.alias(canonical, kPageSize));
  canonical[3] = 'm';
  EXPECT_EQ(shadow[3], 'm');
  EXPECT_GT(syscall_counters().mremap.load(std::memory_order_relaxed),
            mremaps_before);
  arena.unmap(shadow, kPageSize);
}

TEST(ShadowMapper, AutoPicksSomethingWorkable) {
  PhysArena arena(1u << 24);
  ShadowMapper mapper(arena, AliasStrategy::kAuto);
  EXPECT_NE(mapper.strategy(), AliasStrategy::kAuto);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* shadow = static_cast<char*>(mapper.alias(canonical, kPageSize));
  canonical[0] = 'a';
  EXPECT_EQ(shadow[0], 'a');
  arena.unmap(shadow, kPageSize);
}

TEST(ShadowMapper, FixedPlacementAlwaysUsesMemfd) {
  PhysArena arena(1u << 24);
  ShadowMapper mapper(arena, AliasStrategy::kMremap);
  auto* canonical = static_cast<char*>(arena.extend(kPageSize));
  auto* first = static_cast<char*>(mapper.alias(canonical, kPageSize));
  auto* second = static_cast<char*>(mapper.alias(canonical, kPageSize, first));
  EXPECT_EQ(first, second);
  arena.unmap(first, kPageSize);
}

TEST(VaFreeList, PutTakeExact) {
  VaFreeList list;
  list.put(PageRange{0x100000, kPageSize});
  EXPECT_EQ(list.bytes(), kPageSize);
  EXPECT_EQ(list.ranges(), 1u);
  const auto taken = list.take(kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->base, 0x100000u);
  EXPECT_EQ(taken->length, kPageSize);
  EXPECT_EQ(list.bytes(), 0u);
}

TEST(VaFreeList, TakeEmptyReturnsNullopt) {
  VaFreeList list;
  EXPECT_FALSE(list.take(kPageSize).has_value());
}

TEST(VaFreeList, SplitsLargerRange) {
  VaFreeList list;
  list.put(PageRange{0x200000, 4 * kPageSize});
  const auto taken = list.take(kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->length, kPageSize);
  EXPECT_EQ(list.bytes(), 3 * kPageSize);
  // The remainder is still usable.
  const auto rest = list.take(3 * kPageSize);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->length, 3 * kPageSize);
}

TEST(VaFreeList, PrefersExactBucket) {
  VaFreeList list;
  list.put(PageRange{0x300000, 4 * kPageSize});
  list.put(PageRange{0x400000, kPageSize});
  const auto taken = list.take(kPageSize);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->base, 0x400000u);  // exact match, not a split
}

TEST(VaFreeList, TakeTooLargeFails) {
  VaFreeList list;
  list.put(PageRange{0x500000, 2 * kPageSize});
  EXPECT_FALSE(list.take(3 * kPageSize).has_value());
  EXPECT_EQ(list.bytes(), 2 * kPageSize);
}

TEST(VaFreeList, RoundsRequestsUpToPages) {
  VaFreeList list;
  list.put(PageRange{0x600000, 2 * kPageSize});
  const auto taken = list.take(100);  // rounds to one page
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->length, kPageSize);
}

TEST(VaFreeList, DrainVisitsEverything) {
  VaFreeList list;
  list.put(PageRange{0x700000, kPageSize});
  list.put(PageRange{0x800000, 2 * kPageSize});
  std::size_t drained = 0;
  list.drain([&](PageRange r) { drained += r.length; });
  EXPECT_EQ(drained, 3 * kPageSize);
  EXPECT_EQ(list.bytes(), 0u);
  EXPECT_EQ(list.ranges(), 0u);
}

TEST(VaFreeList, ZeroLengthPutIgnored) {
  VaFreeList list;
  list.put(PageRange{0x900000, 0});
  EXPECT_EQ(list.ranges(), 0u);
}

// --- keyed index: shadow spans parked by the arena file offset they alias ---

// Real PROT_NONE reservations, so the list's munmap paths have something to
// release (and fake addresses never reach the kernel).
PageRange reserve(std::size_t pages) {
  void* p = mmap(nullptr, pages * kPageSize, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EXPECT_NE(p, MAP_FAILED);
  return PageRange{addr(p), pages * kPageSize};
}

TEST(VaFreeList, KeyedTakeMatchesOffsetAndSizeOnly) {
  VaFreeList list;
  const PageRange a = reserve(1), b = reserve(2);
  const VaFreeList::Alias parked[] = {{a, 7 * kPageSize, true},
                                      {b, 7 * kPageSize, false}};
  list.park(parked);
  EXPECT_EQ(list.ranges(), 2u);
  EXPECT_EQ(list.bytes(), 3 * kPageSize);
  // Another offset, or the same offset at another length, is a miss.
  EXPECT_FALSE(list.take_alias(8 * kPageSize, kPageSize).has_value());
  EXPECT_FALSE(list.take_alias(7 * kPageSize, 3 * kPageSize).has_value());
  const auto one = list.take_alias(7 * kPageSize, 100);  // rounds to a page
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->range, a);
  EXPECT_TRUE(one->rw);
  const auto two = list.take_alias(7 * kPageSize, 2 * kPageSize);
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->range, b);
  EXPECT_FALSE(two->rw);
  EXPECT_FALSE(list.take_alias(7 * kPageSize, kPageSize).has_value());
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_EQ(list.bytes(), 0u);
  munmap(reinterpret_cast<void*>(a.base), a.length);
  munmap(reinterpret_cast<void*>(b.base), b.length);
}

TEST(VaFreeList, TakeConvertsSameSizeKeyedSpanBeforeSplitting) {
  VaFreeList list;
  list.put(PageRange{0x300000, 4 * kPageSize});
  const VaFreeList::Alias older{PageRange{0x400000, kPageSize}, 0, true};
  const VaFreeList::Alias newer{PageRange{0x500000, kPageSize}, kPageSize,
                                true};
  list.park(std::span(&older, 1));
  list.park(std::span(&newer, 1));
  // Both plain and keyed misses for this size fall to the same-size keyed
  // spans, oldest first, before the 4-page plain range is split.
  auto t = list.take(kPageSize);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->base, 0x400000u);
  t = list.take_exact(kPageSize);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->base, 0x500000u);
  EXPECT_FALSE(list.take_alias(kPageSize, kPageSize).has_value());
  t = list.take(kPageSize);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->base, 0x300000u);  // only now the split
  EXPECT_EQ(list.ranges(), 1u);
  EXPECT_EQ(list.bytes(), 3 * kPageSize);
  list.drain([](PageRange) {});
}

TEST(VaFreeList, DrainReturnsKeyedSpansToo) {
  VaFreeList list;
  list.put(PageRange{0x700000, kPageSize});
  const VaFreeList::Alias parked[] = {
      {PageRange{0x800000, 2 * kPageSize}, 0, true},
      {PageRange{0x900000, kPageSize}, 0, false}};
  list.park(parked);
  std::size_t drained = 0, n = 0;
  list.drain([&](PageRange r) {
    drained += r.length;
    ++n;
  });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(drained, 4 * kPageSize);
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_FALSE(list.take_alias(0, kPageSize).has_value());
}

TEST(VaFreeList, ReleaseAllAndReliefUnmapKeyedSpans) {
  PhysArena arena(1u << 22);
  VaFreeList list;
  arena.add_relief_source(&list);
  const VaFreeList::Alias parked[] = {{reserve(1), 0, true},
                                      {reserve(3), kPageSize, false}};
  list.park(parked);
  list.put(reserve(1));
  auto& c = syscall_counters();
  const auto unmaps = c.munmap.load(std::memory_order_relaxed);
  EXPECT_EQ(arena.release_relief(), 5 * kPageSize);
  EXPECT_GE(c.munmap.load(std::memory_order_relaxed), unmaps + 1);
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_EQ(list.bytes(), 0u);

  const VaFreeList::Alias again{reserve(2), 0, true};
  list.park(std::span(&again, 1));
  EXPECT_EQ(list.release_all(), 2 * kPageSize);
  EXPECT_EQ(list.ranges(), 0u);
  arena.remove_relief_source(&list);
}

TEST(VaFreeList, HighWaterTrimDrainsKeyedSpans) {
  VaFreeList list;
  list.set_trim_limit(4);
  for (std::size_t i = 0; i < 3; ++i) {
    const VaFreeList::Alias a{reserve(1), i * kPageSize, true};
    list.park(std::span(&a, 1));
  }
  EXPECT_EQ(list.trims(), 0u);
  const VaFreeList::Alias last{reserve(1), 9 * kPageSize, false};
  list.park(std::span(&last, 1));  // 4th held range reaches the limit
  EXPECT_EQ(list.trims(), 1u);
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_FALSE(list.take_alias(0, kPageSize).has_value());

  // Plain donations obey the same rule: no drain below the limit, and the
  // first put() that reaches it drains both indexes, not after a streak.
  const VaFreeList::Alias keyed{reserve(1), 5 * kPageSize, true};
  list.park(std::span(&keyed, 1));
  list.put(reserve(1));
  list.put(reserve(2));
  EXPECT_EQ(list.trims(), 1u);
  EXPECT_EQ(list.ranges(), 3u);
  list.put(reserve(1));  // 4th held range reaches the limit
  EXPECT_EQ(list.trims(), 2u);
  EXPECT_EQ(list.ranges(), 0u);
  EXPECT_EQ(list.bytes(), 0u);
  EXPECT_FALSE(list.take_alias(5 * kPageSize, kPageSize).has_value());
}

TEST(SyscallCounters, TotalSumsComponents) {
  SyscallCounters counters;
  counters.mmap = 2;
  counters.mprotect = 3;
  counters.mremap = 4;
  counters.munmap = 1;
  counters.ftruncate = 5;
  EXPECT_EQ(counters.total(), 15u);
  counters.reset();
  EXPECT_EQ(counters.total(), 0u);
}

TEST(SyscallCounters, ArenaOperationsAreCounted) {
  auto& counters = syscall_counters();
  const auto mmap_before = counters.mmap.load(std::memory_order_relaxed);
  const auto ftruncate_before = counters.ftruncate.load(std::memory_order_relaxed);
  PhysArena arena(1u << 22);
  (void)arena.extend(kPageSize);
  EXPECT_GT(counters.mmap.load(std::memory_order_relaxed), mmap_before);
  EXPECT_GT(counters.ftruncate.load(std::memory_order_relaxed), ftruncate_before);
}

// Property sweep: put/take round trips preserve total bytes for varied sizes.
class VaFreeListSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VaFreeListSweep, SplitConservesBytes) {
  const std::size_t donor_pages = GetParam();
  VaFreeList list;
  list.put(PageRange{0x10000000, donor_pages * kPageSize});
  std::size_t taken_total = 0;
  while (auto taken = list.take(kPageSize)) {
    taken_total += taken->length;
  }
  EXPECT_EQ(taken_total, donor_pages * kPageSize);
}

INSTANTIATE_TEST_SUITE_P(Donors, VaFreeListSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64, 257));

}  // namespace
}  // namespace dpg::vm
