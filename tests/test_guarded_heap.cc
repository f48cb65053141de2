// Tests for the core contribution: GuardedHeap / ShadowEngine (Section 3.2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_heap.h"
#include "core/sharded_heap.h"
#include "vm/vm_stats.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

class GuardedHeapTest : public ::testing::Test {
 protected:
  vm::PhysArena arena_{1u << 28};
  GuardedHeap heap_{arena_};
};

TEST_F(GuardedHeapTest, AllocatedMemoryIsUsable) {
  auto* p = static_cast<char*>(heap_.malloc(100));
  ASSERT_NE(p, nullptr);
  std::memset(p, 'x', 100);
  EXPECT_EQ(p[99], 'x');
  EXPECT_EQ(heap_.size_of(p), 100u);
  heap_.free(p);
}

TEST_F(GuardedHeapTest, EachAllocationGetsItsOwnShadowPage) {
  auto* a = static_cast<char*>(heap_.malloc(16));
  auto* b = static_cast<char*>(heap_.malloc(16));
  EXPECT_NE(vm::page_down(vm::addr(a)), vm::page_down(vm::addr(b)));
  heap_.free(a);
  heap_.free(b);
}

TEST_F(GuardedHeapTest, ObjectsShareUnderlyingPhysicalPages) {
  // Many small objects; physical bytes stay near what a plain allocator
  // would use, far below one page per object (the anti-Electric-Fence claim).
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) ptrs.push_back(heap_.malloc(16));
  const std::size_t phys = arena_.physical_bytes();
  // 1000 x (16+8) bytes plus allocator overhead: well under 100 pages
  // (Electric Fence would need 1000 pages).
  EXPECT_LT(phys, 100 * vm::kPageSize);
  for (void* p : ptrs) heap_.free(p);
}

TEST_F(GuardedHeapTest, HeaderWordRecordsCanonicalAddress) {
  auto* p = static_cast<char*>(heap_.malloc(32));
  const std::uintptr_t canonical =
      *reinterpret_cast<std::uintptr_t*>(p - ShadowEngine::kGuardHeader);
  EXPECT_TRUE(arena_.contains_canonical(reinterpret_cast<void*>(canonical)));
  // Same offset within the page (Section 3.2's layout guarantee).
  EXPECT_EQ(vm::page_offset(canonical),
            vm::page_offset(vm::addr(p) - ShadowEngine::kGuardHeader));
  heap_.free(p);
}

TEST_F(GuardedHeapTest, DanglingReadIsDetected) {
  auto* p = static_cast<volatile char*>(heap_.malloc(24));
  p[0] = 'a';
  heap_.free(const_cast<char*>(p), /*site=*/7);
  const auto report = catch_dangling([&] { (void)p[0]; });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kRead);
  EXPECT_EQ(report->fault_address, vm::addr(const_cast<char*>(p)));
  EXPECT_EQ(report->free_site, 7u);
  EXPECT_EQ(report->object_size, 24u);
}

TEST_F(GuardedHeapTest, DanglingWriteIsDetectedAndClassified) {
  auto* p = static_cast<char*>(heap_.malloc(24));
  heap_.free(p);
  const auto report = catch_dangling([&] { p[3] = 'w'; });
  ASSERT_TRUE(report.has_value());
#if defined(__x86_64__)
  EXPECT_EQ(report->kind, AccessKind::kWrite);
#endif
  EXPECT_EQ(report->fault_address, vm::addr(p) + 3);
}

TEST_F(GuardedHeapTest, InteriorDanglingAccessDetected) {
  auto* p = static_cast<char*>(heap_.malloc(2000));
  heap_.free(p);
  const auto report = catch_dangling([&] {
    volatile char c = p[1999];
    (void)c;
  });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->object_base, vm::addr(p));
}

TEST_F(GuardedHeapTest, MultiPageObjectFullyProtected) {
  auto* p = static_cast<char*>(heap_.malloc(3 * vm::kPageSize));
  p[2 * vm::kPageSize] = 'm';
  heap_.free(p);
  for (std::size_t offset :
       {std::size_t{0}, vm::kPageSize + 5, 3 * vm::kPageSize - 1}) {
    const auto report = catch_dangling([&] {
      volatile char c = p[offset];
      (void)c;
    });
    EXPECT_TRUE(report.has_value()) << "offset " << offset;
  }
}

TEST_F(GuardedHeapTest, DoubleFreeIsDetected) {
  auto* p = static_cast<char*>(heap_.malloc(16));
  heap_.free(p, 11);
  const auto report = catch_dangling([&] { heap_.free(p, 12); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kFree);
  EXPECT_EQ(report->free_site, 11u);  // reports the original free
  EXPECT_EQ(heap_.stats().double_frees, 1u);
}

TEST_F(GuardedHeapTest, InvalidFreeIsDetected) {
  int local = 0;
  const auto report = catch_dangling([&] { heap_.free(&local); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  EXPECT_EQ(heap_.stats().invalid_frees, 1u);
}

TEST_F(GuardedHeapTest, InteriorFreeIsInvalid) {
  auto* p = static_cast<char*>(heap_.malloc(64));
  const auto report = catch_dangling([&] { heap_.free(p + 8); });
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, AccessKind::kInvalidFree);
  heap_.free(p);  // the real pointer still frees fine
}

TEST_F(GuardedHeapTest, FreeNullIsNoop) {
  EXPECT_NO_THROW(heap_.free(nullptr));
}

TEST_F(GuardedHeapTest, PhysicalMemoryIsReusedAfterFree) {
  auto* p = static_cast<char*>(heap_.malloc(64));
  std::strcpy(p, "first");
  heap_.free(p);
  // The canonical block is recycled: a same-size allocation reuses the
  // physical memory through a *different* shadow page.
  auto* q = static_cast<char*>(heap_.malloc(64));
  EXPECT_NE(vm::page_down(vm::addr(q)), vm::page_down(vm::addr(p)));
  std::strcpy(q, "second");
  EXPECT_STREQ(q, "second");
  heap_.free(q);
}

TEST_F(GuardedHeapTest, DetectionSurvivesPhysicalReuse) {
  // The crucial temporal property: after the physical memory is recycled
  // into a new object, the OLD pointer still traps.
  auto* p = static_cast<char*>(heap_.malloc(64));
  heap_.free(p);
  auto* q = static_cast<char*>(heap_.malloc(64));
  std::strcpy(q, "fresh");
  const auto report = catch_dangling([&] {
    volatile char c = p[0];
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
  EXPECT_STREQ(q, "fresh");
  heap_.free(q);
}

TEST_F(GuardedHeapTest, StatsTrackShadowPages) {
  const GuardStats before = heap_.stats();
  auto* p = static_cast<char*>(heap_.malloc(16));
  const GuardStats mid = heap_.stats();
  EXPECT_EQ(mid.allocations, before.allocations + 1);
  EXPECT_GE(mid.shadow_pages_mapped + mid.shadow_pages_reused,
            before.shadow_pages_mapped + before.shadow_pages_reused + 1);
  heap_.free(p);
  EXPECT_EQ(heap_.stats().frees, before.frees + 1);
}

TEST_F(GuardedHeapTest, SizeOfFreedObjectIsZero) {
  auto* p = static_cast<char*>(heap_.malloc(33));
  EXPECT_EQ(heap_.size_of(p), 33u);
  heap_.free(p);
  // Freed: the registry still knows it, but size_of via lookup reports the
  // recorded size; a dangling *free* would be flagged. Contract: size_of on
  // a freed pointer returns the stored size (record retained for detection).
  EXPECT_EQ(heap_.size_of(p), 33u);
}

TEST_F(GuardedHeapTest, ZeroByteAllocationStillGuarded) {
  auto* p = static_cast<char*>(heap_.malloc(0));
  heap_.free(p);
  const auto report = catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(GuardedHeapBatching, ProtectCallsPlusSavedEqualsFrees) {
  // With batching, merged mprotect calls are counted in protect_calls and
  // every merge that elided a call in protect_calls_saved — together they
  // must account for every free, so the batching books always balance.
  vm::PhysArena arena(1u << 28);
  GuardConfig cfg;
  cfg.protect_batch = 8;
  GuardedHeap heap(arena, cfg);
  constexpr int kFrees = 100;  // not a multiple of the batch: tests the tail
  std::vector<void*> ptrs;
  for (int i = 0; i < kFrees; ++i) ptrs.push_back(heap.malloc(32));
  for (void* p : ptrs) heap.free(p);
  heap.engine().flush_protections();
  const GuardStats stats = heap.stats();
  EXPECT_EQ(stats.frees, static_cast<std::uint64_t>(kFrees));
  EXPECT_EQ(stats.protect_calls + stats.protect_calls_saved, stats.frees);
  // Batching must actually merge something at batch size 8.
  EXPECT_GT(stats.protect_calls_saved, 0u);
  EXPECT_LT(stats.protect_calls, stats.frees);
}

TEST(GuardedHeapBudget, FreedVaBudgetTriggersReclamation) {
  vm::PhysArena arena(1u << 28);
  GuardConfig cfg;
  cfg.freed_va_budget = 64 * vm::kPageSize;
  GuardedHeap heap(arena, cfg);
  // Free far more than the budget; guarded_bytes must stay bounded.
  for (int i = 0; i < 1000; ++i) {
    void* p = heap.malloc(16);
    heap.free(p);
  }
  const GuardStats stats = heap.stats();
  EXPECT_GT(stats.va_reclaimed_pages, 0u);
  EXPECT_LE(stats.guarded_bytes, cfg.freed_va_budget + 2 * vm::kPageSize);
  // Reclaimed pages really are reused: shadow reuse counter is nonzero.
  EXPECT_GT(stats.shadow_pages_reused, 0u);
}

TEST(GuardedHeapBudget, ReclaimFreedReleasesOldestFirst) {
  vm::PhysArena arena(1u << 28);
  GuardedHeap heap(arena);
  auto* oldest = static_cast<char*>(heap.malloc(16));
  auto* newest = static_cast<char*>(heap.malloc(16));
  heap.free(oldest);
  heap.free(newest);
  const std::size_t reclaimed = heap.engine().reclaim_freed(vm::kPageSize);
  EXPECT_EQ(reclaimed, vm::kPageSize);
  // The newest freed object must still be guarded.
  const auto report = catch_dangling([&] {
    volatile char c = newest[0];
    (void)c;
  });
  EXPECT_TRUE(report.has_value());
}

TEST(GuardedHeapStress, RandomChurnWithDanglingProbes) {
  vm::PhysArena arena(1u << 28);
  GuardConfig cfg;
  cfg.freed_va_budget = 4u << 20;  // keep page tables bounded
  GuardedHeap heap(arena, cfg);
  workloads::Rng rng(0x57E55);
  std::vector<std::pair<unsigned char*, std::size_t>> live;
  std::vector<unsigned char*> freed;
  for (int round = 0; round < 3000; ++round) {
    const auto action = rng.below(10);
    if (action < 5 || live.empty()) {
      const std::size_t size = 1 + rng.below(1000);
      auto* p = static_cast<unsigned char*>(heap.malloc(size));
      p[size - 1] = 2;
      p[0] = 1;  // after: size-1 objects end up holding 1
      live.emplace_back(p, size);
    } else if (action < 8) {
      const std::size_t pick = rng.below(live.size());
      EXPECT_EQ(live[pick].first[0], 1);
      heap.free(live[pick].first);
      if (freed.size() < 64) freed.push_back(live[pick].first);
      live[pick] = live.back();
      live.pop_back();
    } else if (!freed.empty()) {
      // Probe a random dangling pointer: must always trap (those kept in
      // `freed` are the first 64 frees; budget reclamation may have recycled
      // some, so only probe ones still registered as freed).
      unsigned char* p = freed[rng.below(freed.size())];
      const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
      if (rec != nullptr && rec->state.load() == ObjectState::kFreed &&
          rec->user_shadow == vm::addr(p)) {
        const auto report = catch_dangling([&] {
          volatile unsigned char c = *p;
          (void)c;
        });
        EXPECT_TRUE(report.has_value());
      }
    }
  }
  for (auto& [p, size] : live) heap.free(p);
}

// --- graveyard revocation (DESIGN.md §16) ----------------------------------
// A budgeted engine revokes by burying: the freed span becomes an anonymous
// PROT_NONE mapping that no longer aliases its canonical pages.

GuardConfig graveyard_config() {
  GuardConfig cfg;
  cfg.freed_va_budget = 1u << 20;
  return cfg;
}

TEST(GraveyardRevocation, ReallocationOnTheSameCanonicalPageReadsBack) {
  vm::PhysArena arena(1u << 28);
  GuardedHeap heap(arena, graveyard_config());
  auto* p = static_cast<char*>(heap.malloc(64));
  const std::uintptr_t canonical = ShadowEngine::record_of(p)->canonical;
  heap.free(p);
  // Budget release: the buried span goes back to the shared list.
  ASSERT_EQ(heap.engine().reclaim_freed(vm::kPageSize), vm::kPageSize);
  auto* q = static_cast<char*>(heap.malloc(64));
  const ObjectRecord* rec = ShadowEngine::record_of(q);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->canonical, canonical) << "allocator did not reuse the block";
  std::memset(q, 0x5A, 64);
  const auto* canon_bytes = reinterpret_cast<const unsigned char*>(
      canonical + ShadowEngine::kGuardHeader);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(canon_bytes[i], 0x5A) << "byte " << i
                                    << " did not reach the canonical page";
  }
  heap.free(q);
}

TEST(GraveyardRevocation, BuriedSpanNeverReachesKeyedTakeAsRevoked) {
  vm::PhysArena arena(1u << 28);
  GuardedHeap heap(arena, graveyard_config());
  auto* p = static_cast<char*>(heap.malloc(64));
  const std::uintptr_t first_page =
      vm::page_down(ShadowEngine::record_of(p)->canonical);
  heap.free(p);
  ASSERT_EQ(heap.engine().reclaim_freed(vm::kPageSize), vm::kPageSize);
  // The span went back plain: no keyed entry for its canonical page.
  EXPECT_EQ(heap.shadow_freelist().ranges(), 1u);
  EXPECT_FALSE(heap.shadow_freelist()
                   .take_alias(arena.offset_of(reinterpret_cast<void*>(
                                   first_page)),
                               vm::kPageSize)
                   .has_value());

  // Churn past the budget many times over: releases never feed an upgrade.
  for (int i = 0; i < 2000; ++i) heap.free(heap.malloc(16 + i % 3000));
  EXPECT_GT(heap.stats().va_reclaimed_pages, 256u);
  EXPECT_EQ(heap.stats().va_keyed_upgrades, 0u);

  // The mprotect owner (no budget) still parks revoked spans keyed.
  GuardedHeap pool_like(arena);
  auto* r = static_cast<char*>(pool_like.malloc(64));
  const std::uintptr_t r_page =
      vm::page_down(ShadowEngine::record_of(r)->canonical);
  pool_like.free(r);
  ASSERT_EQ(pool_like.engine().reclaim_freed(vm::kPageSize), vm::kPageSize);
  const auto revoked = pool_like.shadow_freelist().take_alias(
      arena.offset_of(reinterpret_cast<void*>(r_page)), vm::kPageSize);
  ASSERT_TRUE(revoked.has_value());
  EXPECT_FALSE(revoked->rw);
  pool_like.shadow_freelist().put(revoked->range);
}

TEST(GraveyardRevocation, DanglingUsesOfABuriedSpanAreExact) {
  vm::PhysArena arena(1u << 28);
  GuardedHeap heap(arena, graveyard_config());
  auto* p = static_cast<char*>(heap.malloc(5000));  // two pages
  heap.free(p, /*site=*/21);
  ASSERT_TRUE(heap.engine().revocation_applied(p));
  const auto read = catch_dangling([&] {
    volatile char c = p[4500];
    (void)c;
  });
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->kind, AccessKind::kRead);
  EXPECT_EQ(read->free_site, 21u);
  EXPECT_EQ(read->object_size, 5000u);
  const auto write = catch_dangling([&] { p[7] = 'w'; });
  ASSERT_TRUE(write.has_value());
#if defined(__x86_64__)
  EXPECT_EQ(write->kind, AccessKind::kWrite);
#endif
  const auto df = catch_dangling([&] { heap.free(p, 22); });
  ASSERT_TRUE(df.has_value());
  EXPECT_EQ(df->kind, AccessKind::kFree);
  EXPECT_EQ(df->free_site, 21u);
  EXPECT_EQ(heap.stats().double_frees, 1u);
}

TEST(GraveyardRevocation, ShardedHeapRevokesEveryFreeWithoutMprotect) {
  vm::PhysArena arena(1u << 28);
  DegradationGovernor gov;
  GuardConfig cfg = graveyard_config();
  cfg.freed_va_budget = 8u << 20;  // 2 MiB a shard: releases happen
  cfg.governor = &gov;
  ShardedHeap heap(arena, cfg, 4);
  const std::uint64_t mprotect0 = vm::syscall_counters().mprotect.load();
  constexpr int kThreads = 4;
  constexpr int kPairs = 3000;
  std::vector<std::atomic<void*>> handoff(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FaultManager::ensure_altstack();
      for (int i = 0; i < kPairs; ++i) {
        void* p = heap.malloc(16 + static_cast<std::size_t>(i % 9000));
        if (i % 4 == 0) {
          // Cross-shard free: the next thread frees it on its own path.
          if (void* prev = handoff[(t + 1) % kThreads].exchange(p)) {
            heap.free(prev);
          }
        } else {
          heap.free(p);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& h : handoff) {
    if (void* p = h.exchange(nullptr)) heap.free(p);
  }
  heap.flush_all();
  const GuardStats s = heap.stats();
  EXPECT_EQ(s.frees, static_cast<std::uint64_t>(kThreads) * kPairs);
  EXPECT_EQ(s.frees, s.revoked_spans);
  EXPECT_GT(s.va_reclaimed_pages, 0u);
  EXPECT_EQ(vm::syscall_counters().mprotect.load() - mprotect0, 0u);
  EXPECT_EQ(gov.mode(), GuardMode::kFullGuard);
}

// The governor's VMA gauge counts the engine's own file-backed aliases: a
// buried span leaves it at the free, an mprotect-revoked one at release. On a
// burying engine each live alias also stands for the graveyard run it can
// split off, so it counts two.
TEST(GraveyardRevocation, VmaGaugeCountsLiveAliasesOnly) {
  vm::PhysArena arena(1u << 28);
  DegradationGovernor gov;
  GuardConfig cfg = graveyard_config();
  cfg.governor = &gov;
  std::vector<void*> ptrs;
  {
    GuardedHeap heap(arena, cfg);
    for (int i = 0; i < 100; ++i) ptrs.push_back(heap.malloc(100));
    EXPECT_EQ(gov.counters().vma_estimate.load(), 200u);
    for (void* p : ptrs) heap.free(p);
    EXPECT_EQ(gov.counters().vma_estimate.load(), 0u);
    // Reuse of the released (buried) spans counts them back in.
    heap.engine().reclaim_freed(~std::size_t{0});
    ptrs.clear();
    for (int i = 0; i < 10; ++i) ptrs.push_back(heap.malloc(100));
    EXPECT_EQ(gov.counters().vma_estimate.load(), 20u);
    for (void* p : ptrs) heap.free(p);
  }
  EXPECT_EQ(gov.counters().vma_estimate.load(), 0u);

  cfg.freed_va_budget = 0;  // the mprotect owner
  GuardedHeap heap(arena, cfg);
  ptrs.clear();
  for (int i = 0; i < 50; ++i) ptrs.push_back(heap.malloc(100));
  for (void* p : ptrs) heap.free(p);
  EXPECT_EQ(gov.counters().vma_estimate.load(), 50u);
  heap.engine().reclaim_freed(~std::size_t{0});
  EXPECT_EQ(gov.counters().vma_estimate.load(), 0u);
}

}  // namespace
}  // namespace dpg::core
