// Unit tests for the pool-allocation runtime (poolinit/alloc/free/destroy).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "alloc/pool.h"
#include "vm/vm_stats.h"
#include "workloads/common.h"

namespace dpg::alloc {
namespace {

class PoolTest : public ::testing::Test {
 protected:
  vm::PhysArena arena_{1u << 26};
  ArenaSource source_{arena_};
};

// /proc/self/maps line count: each line is one VMA.
std::size_t vma_count() {
  std::FILE* f = std::fopen("/proc/self/maps", "r");
  if (f == nullptr) return 0;
  std::size_t n = 0;
  for (int c; (c = std::fgetc(f)) != EOF;) n += c == '\n';
  std::fclose(f);
  return n;
}

// Regression: canonical extents recycled to an ArenaSource lie inside the
// arena's canonical mapping. Its free list once inherited the shadow lists'
// high-water trim, so the 16384th recycled extent munmapped every held
// extent — splitting the canonical VMA into thousands of pieces, orphaning
// their memfd pages, and leaving later obtain() calls to hand out unmapped
// addresses.
TEST(ArenaSourceTest, RecycledExtentsPastTrimLimitStayMapped) {
  const std::size_t n = 2 * (vm::VaFreeList::kDefaultTrimLimit + 64);
  vm::PhysArena arena(n * vm::kPageSize + (1u << 20));
  std::vector<vm::PageRange> held;
  {
    ArenaSource source(arena);
    std::vector<vm::PageRange> extents;
    extents.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      extents.push_back(source.obtain(vm::kPageSize));
    }
    const std::size_t vmas = vma_count();
    auto& c = vm::syscall_counters();
    const auto unmaps = c.munmap.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; i += 2) source.recycle(extents[i]);
    EXPECT_GT(source.recyclable_bytes(),
              vm::VaFreeList::kDefaultTrimLimit * vm::kPageSize);
    EXPECT_EQ(c.munmap.load(std::memory_order_relaxed), unmaps);
    EXPECT_LE(vma_count(), vmas + 2);
    // Every recycled extent is still canonical memory: obtain hands them back
    // and they are writable (a sample is touched, to keep the test small).
    for (std::size_t i = 0; i < n; i += 2) {
      const vm::PageRange r = source.obtain(vm::kPageSize);
      if (i % 512 == 0) {
        *reinterpret_cast<volatile unsigned char*>(r.base) = 0x5A;
        held.push_back(r);
      }
    }
    // Hand them back once more: the source's destructor must forget them,
    // not unmap them — the arena still owns the canonical mapping.
    for (const vm::PageRange& r : held) source.recycle(r);
  }
  for (const vm::PageRange& r : held) {
    EXPECT_EQ(*reinterpret_cast<volatile unsigned char*>(r.base), 0x5A);
  }
}

TEST_F(PoolTest, AllocFreeRoundTrip) {
  Pool pool(source_, 32);
  void* p = pool.malloc(32);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, 32);
  EXPECT_EQ(pool.size_of(p), 32u);
  pool.free(p);
}

TEST_F(PoolTest, FreedBlockReusedForSameStride) {
  Pool pool(source_, 0);
  void* p = pool.malloc(40);
  pool.free(p);
  void* q = pool.malloc(40);
  EXPECT_EQ(p, q);
  void* r = pool.malloc(33);  // same 16-aligned stride bucket as 40
  EXPECT_NE(r, nullptr);
}

TEST_F(PoolTest, BumpAllocationIsContiguous) {
  Pool pool(source_, 0);
  auto* a = static_cast<std::byte*>(pool.malloc(16));
  auto* b = static_cast<std::byte*>(pool.malloc(16));
  EXPECT_EQ(a + 32, b);  // 16 payload + 16 header stride
}

TEST_F(PoolTest, ElemHintSizesExtents) {
  Pool pool(source_, 64);
  (void)pool.malloc(64);
  EXPECT_GE(pool.stats().extent_bytes, Pool::kMinExtent);
}

TEST_F(PoolTest, DestroyRecyclesExtentsToSource) {
  std::size_t recycled_before = source_.recyclable_bytes();
  {
    Pool pool(source_, 0);
    for (int i = 0; i < 100; ++i) (void)pool.malloc(100);
    pool.destroy();
  }
  EXPECT_GT(source_.recyclable_bytes(), recycled_before);
  // A new pool draws from the recycled extents: physical bytes do not grow.
  const std::size_t phys = arena_.physical_bytes();
  Pool pool2(source_, 0);
  for (int i = 0; i < 100; ++i) (void)pool2.malloc(100);
  EXPECT_EQ(arena_.physical_bytes(), phys);
}

TEST_F(PoolTest, DestroyIsIdempotentAndRunByDtor) {
  Pool pool(source_, 0);
  (void)pool.malloc(8);
  pool.destroy();
  EXPECT_TRUE(pool.destroyed());
  EXPECT_NO_THROW(pool.destroy());
}

TEST_F(PoolTest, UseAfterDestroyThrows) {
  Pool pool(source_, 0);
  void* p = pool.malloc(8);
  pool.destroy();
  EXPECT_THROW((void)pool.malloc(8), std::logic_error);
  EXPECT_THROW(pool.free(p), std::logic_error);
}

TEST_F(PoolTest, DoubleFreeThrows) {
  Pool pool(source_, 0);
  void* p = pool.malloc(24);
  pool.free(p);
  EXPECT_THROW(pool.free(p), std::logic_error);
}

TEST_F(PoolTest, FreeNullIsNoop) {
  Pool pool(source_, 0);
  EXPECT_NO_THROW(pool.free(nullptr));
}

TEST_F(PoolTest, StatsAreAccurate) {
  Pool pool(source_, 16);
  void* a = pool.malloc(16);
  void* b = pool.malloc(16);
  pool.free(a);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.frees, 1u);
  EXPECT_EQ(stats.live_objects, 1u);
  pool.free(b);
}

TEST_F(PoolTest, LargeObjectsGetDedicatedExtents) {
  Pool pool(source_, 0);
  const std::size_t big = 5 * vm::kPageSize;
  auto* p = static_cast<char*>(pool.malloc(big));
  p[big - 1] = 'e';
  EXPECT_EQ(pool.size_of(p), big);
  pool.free(p);
}

TEST_F(PoolTest, ManyObjectsAcrossExtents) {
  Pool pool(source_, 48);
  std::vector<void*> ptrs;
  for (int i = 0; i < 5000; ++i) {
    auto* p = static_cast<int*>(pool.malloc(48));
    *p = i;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(*static_cast<int*>(ptrs[static_cast<std::size_t>(i)]), i);
  }
  for (void* p : ptrs) pool.free(p);
  EXPECT_EQ(pool.stats().live_objects, 0u);
}

TEST_F(PoolTest, SequentialPoolsReusePhysicalMemory) {
  // The paper's claim: physical consumption matches the original program
  // because destroyed pools donate extents to the shared source.
  for (int round = 0; round < 3; ++round) {
    Pool pool(source_, 32);
    for (int i = 0; i < 1000; ++i) (void)pool.malloc(32);
    pool.destroy();
  }
  const std::size_t after3 = arena_.physical_bytes();
  for (int round = 0; round < 10; ++round) {
    Pool pool(source_, 32);
    for (int i = 0; i < 1000; ++i) (void)pool.malloc(32);
    pool.destroy();
  }
  EXPECT_EQ(arena_.physical_bytes(), after3);
}

// Parameterized sweep: interleaved alloc/free patterns conserve contents.
class PoolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSweep, RandomChurnKeepsContentsIntact) {
  vm::PhysArena arena(1u << 26);
  ArenaSource source(arena);
  Pool pool(source, GetParam());
  workloads::Rng rng(GetParam() + 7);
  std::vector<std::pair<unsigned char*, unsigned char>> live;
  for (int round = 0; round < 3000; ++round) {
    if (live.size() < 50 || rng.below(2) == 0) {
      const std::size_t size = 1 + rng.below(300);
      auto* p = static_cast<unsigned char*>(pool.malloc(size));
      const auto fill = static_cast<unsigned char>(rng.below(256));
      std::memset(p, fill, size);
      live.emplace_back(p, fill);
    } else {
      const std::size_t pick = rng.below(live.size());
      EXPECT_EQ(*live[pick].first, live[pick].second);
      pool.free(live[pick].first);
      live[pick] = live.back();
      live.pop_back();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Hints, PoolSweep, ::testing::Values(0, 16, 64, 256));

}  // namespace
}  // namespace dpg::alloc
