// Tests for pool-integrated guarding: VA recycling at pooldestroy (§3.3),
// PoolScope discipline, and the shared free list across pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "test_seed.h"
#include "vm/vm_stats.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

TEST(GuardedPool, AllocFreeDetectLifecycle) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx, 32);
  auto* p = static_cast<char*>(pool.alloc(32, 1));
  std::strcpy(p, "pooled");
  EXPECT_STREQ(p, "pooled");
  pool.free(p, 2);
  const auto report = catch_dangling([&] {
    volatile char c = p[0];
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->alloc_site, 1u);
  EXPECT_EQ(report->free_site, 2u);
}

TEST(GuardedPool, DestroyReleasesShadowAndCanonicalPages) {
  GuardedPoolContext ctx;
  const std::size_t shadow_before = ctx.recyclable_shadow_bytes();
  {
    GuardedPool pool(ctx, 16);
    for (int i = 0; i < 50; ++i) (void)pool.alloc(16);
    // Nothing recyclable while the pool lives.
    EXPECT_EQ(ctx.recyclable_shadow_bytes(), shadow_before);
  }
  // 50 shadow pages + canonical extents released.
  EXPECT_GE(ctx.recyclable_shadow_bytes(), shadow_before + 50 * vm::kPageSize);
}

TEST(GuardedPool, NextPoolReusesReleasedVirtualPages) {
  GuardedPoolContext ctx;
  std::set<std::uintptr_t> first_pages;
  {
    GuardedPool pool(ctx, 16);
    for (int i = 0; i < 20; ++i) {
      first_pages.insert(vm::page_down(vm::addr(pool.alloc(16))));
    }
  }
  std::size_t reused = 0;
  {
    GuardedPool pool(ctx, 16);
    for (int i = 0; i < 20; ++i) {
      if (first_pages.count(vm::page_down(vm::addr(pool.alloc(16)))) > 0) {
        reused++;
      }
    }
    EXPECT_GT(pool.stats().shadow_pages_reused, 0u);
  }
  EXPECT_GT(reused, 0u);
}

TEST(GuardedPool, RepeatedPoolsDoNotGrowVaOrPhysical) {
  // The paper's f() example: "all the virtual pages of the pool will be
  // released to the free list and reused for future allocations (in future
  // invocations of f() or elsewhere)".
  GuardedPoolContext ctx;
  auto one_round = [&ctx] {
    GuardedPool pool(ctx, 24);
    std::vector<void*> ptrs;
    for (int i = 0; i < 100; ++i) ptrs.push_back(pool.alloc(24));
    for (void* p : ptrs) pool.free(p);
  };
  for (int warm = 0; warm < 3; ++warm) one_round();
  const std::size_t phys = ctx.arena().physical_bytes();
  const std::size_t shadow = ctx.recyclable_shadow_bytes();
  std::uint64_t mapped_before = 0;
  {
    GuardedPool probe(ctx);
    mapped_before = probe.stats().shadow_pages_mapped;
  }
  for (int round = 0; round < 20; ++round) one_round();
  EXPECT_EQ(ctx.arena().physical_bytes(), phys);
  EXPECT_EQ(ctx.recyclable_shadow_bytes(), shadow);
  (void)mapped_before;
}

TEST(GuardedPool, DestroyWithLiveObjectsReleasesThem) {
  GuardedPoolContext ctx;
  char* leaked = nullptr;
  {
    GuardedPool pool(ctx);
    leaked = static_cast<char*>(pool.alloc(64));
    std::strcpy(leaked, "leak");
    // No free: pooldestroy reclaims implicitly (the pool-allocation
    // semantics: memory lives exactly as long as its pool).
  }
  // The record is gone from the registry: the page may be reused.
  EXPECT_EQ(ShadowRegistry::global().lookup(vm::addr(leaked)), nullptr);
}

TEST(GuardedPool, DestroyIsIdempotent) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx);
  (void)pool.alloc(8);
  pool.destroy();
  EXPECT_NO_THROW(pool.destroy());
}

TEST(GuardedPool, TwoLivePoolsAreIndependent) {
  GuardedPoolContext ctx;
  GuardedPool a(ctx, 16);
  GuardedPool b(ctx, 16);
  auto* pa = static_cast<char*>(a.alloc(16));
  auto* pb = static_cast<char*>(b.alloc(16));
  a.free(pa);
  // b's object is unaffected by a's free and by a's destruction.
  std::strcpy(pb, "alive");
  a.destroy();
  EXPECT_STREQ(pb, "alive");
  b.free(pb);
}

TEST(GuardedPool, DanglingAcrossPoolFreeDetectedBeforeDestroy) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx);
  auto* p = static_cast<char*>(pool.alloc(40));
  pool.free(p);
  // Detected "arbitrarily far in the future" — as long as the pool lives.
  for (int i = 0; i < 3; ++i) {
    const auto report = catch_dangling([&] {
      volatile char c = p[1];
      (void)c;
    });
    EXPECT_TRUE(report.has_value());
  }
}

TEST(PoolScopeTest, CurrentTracksInnermost) {
  GuardedPoolContext ctx;
  EXPECT_EQ(PoolScope::current(), nullptr);
  {
    PoolScope outer(ctx);
    EXPECT_EQ(PoolScope::current(), &outer);
    {
      PoolScope inner(ctx);
      EXPECT_EQ(PoolScope::current(), &inner);
    }
    EXPECT_EQ(PoolScope::current(), &outer);
  }
  EXPECT_EQ(PoolScope::current(), nullptr);
}

TEST(PoolScopeTest, ScopeExitRecyclesPages) {
  GuardedPoolContext ctx;
  const std::size_t before = ctx.recyclable_shadow_bytes();
  {
    PoolScope scope(ctx);
    (void)scope.pool().alloc(16);
  }
  EXPECT_GT(ctx.recyclable_shadow_bytes(), before);
}

TEST(GuardedPool, StatsAggregateAcrossLifecycle) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx, 32);
  void* a = pool.alloc(32);
  void* b = pool.alloc(32);
  pool.free(a);
  const GuardStats stats = pool.stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.frees, 1u);
  EXPECT_EQ(stats.live_records, 2u);  // freed object still guarded
  (void)b;
}

TEST(GuardedPool, ElemHintPacksCanonicalExtents) {
  GuardedPoolContext ctx;
  GuardedPool pool(ctx, 64);
  for (int i = 0; i < 100; ++i) (void)pool.alloc(64);
  EXPECT_EQ(pool.pool_stats().allocations, 100u);
  EXPECT_EQ(pool.pool_stats().live_objects, 100u);
}

// --- keyed reuse: a destroyed pool's aliases serve the same canonical pages

std::uint64_t mmaps() {
  return vm::syscall_counters().mmap.load(std::memory_order_relaxed);
}
std::uint64_t mprotects() {
  return vm::syscall_counters().mprotect.load(std::memory_order_relaxed);
}

TEST(GuardedPoolKeyedReuse, LiveAtDestroyAliasIsReusedWithZeroSyscalls) {
  GuardedPoolContext ctx;
  std::uintptr_t first_shadow = 0;
  {
    GuardedPool pool(ctx, 48);
    first_shadow = vm::page_down(vm::addr(pool.alloc(48)));
  }  // live at pooldestroy: parked read-write
  GuardedPool pool(ctx, 48);
  const auto m0 = mmaps();
  const auto p0 = mprotects();
  auto* p = static_cast<char*>(pool.alloc(48));
  EXPECT_EQ(mmaps(), m0);
  EXPECT_EQ(mprotects(), p0);
  EXPECT_EQ(vm::page_down(vm::addr(p)), first_shadow);
  EXPECT_EQ(pool.stats().va_keyed_hits, 1u);
  EXPECT_EQ(pool.stats().va_keyed_upgrades, 0u);
  // The reused alias views the new object's canonical bytes.
  const ObjectRecord* rec = ShadowEngine::record_of(p);
  ASSERT_NE(rec, nullptr);
  auto* canon =
      reinterpret_cast<char*>(rec->canonical + ShadowEngine::kGuardHeader);
  std::memcpy(canon, "through-canonical", 18);
  EXPECT_STREQ(p, "through-canonical");
  std::strcpy(p, "through-alias");
  EXPECT_STREQ(canon, "through-alias");
}

TEST(GuardedPoolKeyedReuse, RevokedAliasIsReenabledAndTrapsAgain) {
  GuardedPoolContext ctx;
  std::uintptr_t first_shadow = 0;
  {
    GuardedPool pool(ctx, 48);
    void* q = pool.alloc(48);
    first_shadow = vm::page_down(vm::addr(q));
    pool.free(q);  // revoked: parked PROT_NONE
  }
  GuardedPool pool(ctx, 48);
  const auto m0 = mmaps();
  const auto p0 = mprotects();
  auto* p = static_cast<char*>(pool.alloc(48));
  EXPECT_EQ(mmaps(), m0);
  EXPECT_EQ(mprotects(), p0 + 1);  // the read-write upgrade, nothing else
  EXPECT_EQ(vm::page_down(vm::addr(p)), first_shadow);
  EXPECT_EQ(pool.stats().va_keyed_hits, 1u);
  EXPECT_EQ(pool.stats().va_keyed_upgrades, 1u);
  std::strcpy(p, "usable");
  EXPECT_STREQ(p, "usable");
  pool.free(p, 9);
  const auto report = catch_dangling([&] {
    volatile char c = p[0];
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->free_site, 9u);
}

// Pools keep mprotect revocation even with a freed-VA budget (the shape the
// pool policy ships): a revoked alias still maps its canonical page, so the
// next pool re-enables it with one upgrade instead of burying and remapping.
TEST(GuardedPoolKeyedReuse, BudgetedPoolRevokesInPlaceNotByBurying) {
  GuardedPoolContext ctx(GuardConfig{.freed_va_budget = std::size_t{128} << 20});
  {
    GuardedPool pool(ctx, 48);
    const auto m0 = mmaps();
    const auto p0 = mprotects();
    pool.free(pool.alloc(48));
    EXPECT_EQ(mmaps(), m0 + 1);       // the alias
    EXPECT_EQ(mprotects(), p0 + 1);   // the revocation
  }
  GuardedPool pool(ctx, 48);
  const auto m0 = mmaps();
  const auto p0 = mprotects();
  void* p = pool.alloc(48);
  EXPECT_EQ(mmaps(), m0);
  EXPECT_EQ(mprotects(), p0 + 1);  // the read-write upgrade
  EXPECT_EQ(pool.stats().va_keyed_upgrades, 1u);
  pool.free(p);
}

TEST(GuardedPoolKeyedReuse, OtherCanonicalPageTakesSpanOnlyViaMapFixed) {
  GuardedPoolContext ctx;
  std::uintptr_t parked_shadow = 0;
  {
    GuardedPool pool(ctx, 48);
    parked_shadow = vm::page_down(vm::addr(pool.alloc(48)));
  }
  // `holder` takes the recycled canonical extent, so `pool` lands on fresh
  // canonical pages whose offset matches no parked key.
  GuardedPool holder(ctx, 48);
  auto* h = static_cast<char*>(holder.alloc(48));
  ASSERT_EQ(vm::page_down(vm::addr(h)), parked_shadow);  // the keyed hit
  GuardedPool pool(ctx, 48);
  const auto m0 = mmaps();
  auto* p = static_cast<char*>(pool.alloc(48));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.stats().va_keyed_hits, 0u);
  EXPECT_EQ(mmaps(), m0 + 1);  // a remap of whatever span it got
  std::strcpy(h, "holder");
  std::strcpy(p, "pool");
  const ObjectRecord* rec = ShadowEngine::record_of(p);
  ASSERT_NE(rec, nullptr);
  EXPECT_STREQ(reinterpret_cast<char*>(rec->canonical +
                                       ShadowEngine::kGuardHeader),
               "pool");
  EXPECT_STREQ(h, "holder");
}

TEST(GuardedPoolKeyedReuse, ParkedSpansStayWithinPeakDemand) {
  // 1000 poolinit/pooldestroy rounds with varying layouts: object counts,
  // sizes (1-3 page spans), and which objects are freed before destroy. A
  // parked span is taken by key, or converted by size, before anything is
  // mapped fresh, so the list holds at most, per span size, the most spans of
  // that size any one pool held.
  GuardedPoolContext ctx;
  workloads::Rng rng(dpg::testing::dpg_test_seed(0x5EED));
  std::map<std::size_t, std::size_t> peak;  // span pages -> max per pool
  for (int round = 0; round < 1000; ++round) {
    std::map<std::size_t, std::size_t> held;
    GuardedPool pool(ctx, round % 3 == 0 ? 0 : 32);
    const std::size_t n = 1 + rng.below(40);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pick = rng.below(10);
      const std::size_t size = pick < 7   ? 16 + rng.below(240)
                               : pick < 9 ? 3000 + rng.below(2000)
                                          : 9000;
      void* p = pool.alloc(size);
      const ObjectRecord* rec = ShadowEngine::record_of(p);
      ASSERT_NE(rec, nullptr);
      ++held[rec->span_length / vm::kPageSize];
      if (rng.below(2) == 0) pool.free(p);
    }
    pool.destroy();
    for (const auto& [pages, count] : held) {
      peak[pages] = std::max(peak[pages], count);
    }
    std::size_t bound = 0;
    for (const auto& [pages, count] : peak) bound += count;
    ASSERT_LE(ctx.shadow_freelist().ranges(), bound) << "round " << round;
  }
}

// Parameterized: pooldestroy must fully recycle for any object size,
// including page-spanning ones.
class PoolRecycleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolRecycleSweep, AllSpansRecycledOnDestroy) {
  GuardedPoolContext ctx;
  const std::size_t size = GetParam();
  const std::size_t before = ctx.recyclable_shadow_bytes();
  std::size_t expected_span_bytes = 0;
  {
    GuardedPool pool(ctx);
    for (int i = 0; i < 10; ++i) {
      void* p = pool.alloc(size);
      const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
      ASSERT_NE(rec, nullptr);
      expected_span_bytes += rec->span_length;
    }
  }
  EXPECT_GE(ctx.recyclable_shadow_bytes(), before + expected_span_bytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolRecycleSweep,
                         ::testing::Values(1, 16, 100, 4000, 4096, 5000,
                                           3 * dpg::vm::kPageSize));

}  // namespace
}  // namespace dpg::core
