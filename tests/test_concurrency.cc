// Multithreaded tests: the engine serializes mutators on a mutex and the
// registry publishes lock-free snapshots for the (per-thread) fault path —
// these suites hammer both from several threads at once.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "core/fault_manager.h"
#include "core/guarded_heap.h"
#include "core/guarded_pool.h"
#include "core/sharded_heap.h"
#include "test_seed.h"
#include "workloads/common.h"

namespace dpg::core {
namespace {

constexpr int kThreads = 4;

TEST(Concurrency, ParallelAllocFreeChurn) {
  vm::PhysArena arena(1u << 30);
  GuardedHeap heap(arena, {.freed_va_budget = 16u << 20});
  std::atomic<bool> failed{false};
  const std::uint64_t seed0 = dpg::testing::dpg_test_seed(1);
  DPG_SEED_TRACE(seed0);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&heap, &failed, seed0, t] {
      workloads::Rng rng(seed0 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<unsigned char*, unsigned char>> live;
      for (int round = 0; round < 800; ++round) {
        if (live.size() < 20 || rng.below(2) == 0) {
          const std::size_t size = 1 + rng.below(500);
          auto* p = static_cast<unsigned char*>(heap.malloc(size));
          const auto fill = static_cast<unsigned char>((t << 6) | (round & 63));
          p[0] = fill;
          p[size - 1] = fill;
          live.emplace_back(p, fill);
        } else {
          const std::size_t pick = rng.below(live.size());
          if (*live[pick].first != live[pick].second) failed = true;
          heap.free(live[pick].first);
          live[pick] = live.back();
          live.pop_back();
        }
      }
      for (auto& [p, fill] : live) {
        if (*p != fill) failed = true;
        heap.free(p);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(failed.load()) << "cross-thread corruption";
  const GuardStats stats = heap.stats();
  EXPECT_EQ(stats.allocations, stats.frees);
}

TEST(Concurrency, ParallelDanglingProbesEachThreadTraps) {
  // Each thread frees its own object then probes it: the probe machinery
  // (sigsetjmp state) is thread-local, and every thread must detect.
  vm::PhysArena arena(1u << 28);
  GuardedHeap heap(arena);
  std::atomic<int> detections{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&heap, &detections] {
      for (int i = 0; i < 50; ++i) {
        auto* p = static_cast<char*>(heap.malloc(32));
        heap.free(p);
        const auto report = catch_dangling([&] {
          volatile char c = *p;
          (void)c;
        });
        if (report.has_value()) detections.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(detections.load(), kThreads * 50);
}

TEST(Concurrency, RegistryLookupsRaceWithMutation) {
  // Readers (lookup) run lock-free against writers (insert/erase + growth).
  ShadowRegistry reg(64);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  // A stable record always present: readers assert they can always find it.
  ObjectRecord anchor;
  anchor.shadow_base = 0x7600000000;
  anchor.span_length = vm::kPageSize;
  reg.insert(anchor);

  const std::uint64_t writer_seed = dpg::testing::dpg_test_seed(7);
  DPG_SEED_TRACE(writer_seed);
  std::thread writer([&] {
    workloads::Rng rng(writer_seed);
    std::vector<std::unique_ptr<ObjectRecord>> live;
    for (int round = 0; round < 20000; ++round) {
      if (live.size() < 100 || rng.below(2) == 0) {
        auto rec = std::make_unique<ObjectRecord>();
        rec->shadow_base = 0x7700000000 + rng.below(1u << 16) * vm::kPageSize;
        rec->span_length = vm::kPageSize;
        if (reg.lookup(rec->shadow_base) != nullptr) continue;
        reg.insert(*rec);
        live.push_back(std::move(rec));
      } else {
        const std::size_t pick = rng.below(live.size());
        reg.erase(*live[pick]);
        live[pick] = std::move(live.back());
        live.pop_back();
      }
    }
    for (auto& rec : live) reg.erase(*rec);
    stop = true;
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (reg.lookup(0x7600000800) != &anchor) failed = true;
        if (reg.lookup(0x123000) != nullptr) failed = true;
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  reg.erase(anchor);
}

TEST(Concurrency, PoolPerThreadScopes) {
  // PoolScope stacks are thread-local: concurrent scoped connections must
  // not interfere, and the shared context free-lists must stay consistent.
  GuardedPoolContext ctx;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx, &failed, t] {
      for (int conn = 0; conn < 60; ++conn) {
        PoolScope scope(ctx);
        if (PoolScope::current() != &scope) failed = true;
        auto* p = static_cast<int*>(scope.pool().alloc(sizeof(int) * 16));
        for (int i = 0; i < 16; ++i) p[i] = t * 1000 + conn;
        for (int i = 0; i < 16; ++i) {
          if (p[i] != t * 1000 + conn) failed = true;
        }
        scope.pool().free(p);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(ctx.recyclable_shadow_bytes(), 0u);
}

TEST(Concurrency, DetectionsCounterIsAtomic) {
  vm::PhysArena arena(1u << 28);
  GuardedHeap heap(arena);
  const std::uint64_t before = FaultManager::instance().detections();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&heap] {
      for (int i = 0; i < 25; ++i) {
        auto* p = static_cast<char*>(heap.malloc(8));
        heap.free(p);
        (void)catch_dangling([&] {
          volatile char c = *p;
          (void)c;
        });
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(FaultManager::instance().detections(), before + kThreads * 25);
}

TEST(Concurrency, BatchedRevocationRemoteFreeStorm) {
  // MPSC storm against batched revocation: producers allocate on their home
  // shards, one consumer frees everything remotely, so every revocation
  // follows the remote-free drain path into each shard's coalescing queue.
  vm::PhysArena arena(1u << 28);
  DegradationGovernor gov;
  ShardedHeap heap(arena,
                   {.freed_va_budget = 64u << 20,
                    .protect_batch = 16,
                    .governor = &gov},
                   kThreads);

  constexpr int kPerThread = 400;
  std::mutex mu;
  std::vector<unsigned char*> queue;
  std::atomic<int> producers_left{kThreads};
  std::atomic<bool> failed{false};
  const std::uint64_t seed0 = dpg::testing::dpg_test_seed(11);
  DPG_SEED_TRACE(seed0);

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      workloads::Rng rng(seed0 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t size = 1 + rng.below(256);
        auto* p = static_cast<unsigned char*>(heap.malloc(size));
        if (p == nullptr) {
          failed = true;
          break;
        }
        p[0] = static_cast<unsigned char>(t);
        std::lock_guard lk(mu);
        queue.push_back(p);
      }
      producers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  // The consumer never allocated any of these: every free is a cross-thread
  // (remote) free routed back to the owning shard.
  std::vector<unsigned char*> freed;
  std::thread consumer([&] {
    for (;;) {
      // Order matters: only an empty pop AFTER observing "no producers left"
      // proves the queue is drained (a push can land between an empty pop
      // and the counter check, but not between the check and a later pop).
      const bool done = producers_left.load(std::memory_order_acquire) == 0;
      unsigned char* p = nullptr;
      {
        std::lock_guard lk(mu);
        if (!queue.empty()) {
          p = queue.back();
          queue.pop_back();
        }
      }
      if (p != nullptr) {
        heap.free(p);
        freed.push_back(p);
      } else if (done) {
        break;
      }
    }
  });
  for (std::thread& th : producers) th.join();
  consumer.join();
  heap.flush_all();

  EXPECT_FALSE(failed.load());
  const GuardStats stats = heap.stats();
  EXPECT_EQ(stats.allocations, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.frees, stats.allocations);  // every remote free admitted once
  EXPECT_EQ(stats.revoked_spans, stats.frees);  // flush drained every queue
  EXPECT_EQ(stats.guard_failures, 0u);
  EXPECT_EQ(stats.double_frees, 0u);

  // A second free of a consumed pointer is still an exact double-free report,
  // raised from yet another thread (neither allocator nor consumer).
  ASSERT_FALSE(freed.empty());
  unsigned char* df = freed.back();
  std::thread df_probe([&] {
    const auto report = catch_dangling([&] { heap.free(df); });
    if (!report.has_value() || report->kind != AccessKind::kFree) failed = true;
  });
  df_probe.join();
  EXPECT_FALSE(failed.load()) << "double free after remote-free storm";

  // Revocation is visible to every thread: a fresh thread that has only
  // touched the heap through its own malloc must trap on every probed span.
  std::atomic<int> traps{0};
  std::thread prober([&] {
    void* warm = heap.malloc(16);
    for (std::size_t i = 0; i < 8 && i < freed.size(); ++i) {
      unsigned char* p = freed[freed.size() - 1 - i];
      const auto report = catch_dangling([&] {
        volatile unsigned char c = *p;
        (void)c;
      });
      if (report.has_value()) traps.fetch_add(1);
    }
    heap.free(warm);
  });
  prober.join();
  EXPECT_EQ(traps.load(), 8);
}

}  // namespace
}  // namespace dpg::core
