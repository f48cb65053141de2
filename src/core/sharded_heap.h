// ShardedHeap — per-thread ShadowEngine shards over one shared arena/heap.
//
// The single-engine GuardedHeap serializes every malloc/free on one mutex;
// on a multi-core server the lock, not the MMU work, becomes the ceiling.
// ShardedHeap keeps the paper's machinery intact and splits only the *engine*
// state (records list, magazines, revocation queue, quarantine, counters)
// across DPG_SHARDS ShadowEngines. Deliberately shared:
//
//   PhysArena + SegregatedHeap  one canonical address space and allocator —
//                               required so a degraded canonical pointer, or
//                               a block freed on a different thread than its
//                               allocator, still resolves correctly.
//   VaFreeList                  shadow VAs recycled by any shard serve all
//                               shards (the paper's shared free list).
//   DegradationGovernor         one global ladder; a syscall refusal on one
//                               shard degrades the process-wide policy, and
//                               the fault manager keeps one consistent view
//                               through the global ShadowRegistry.
//
// Routing: a thread is pinned to a home shard (round-robin token on first
// use). Allocations go to the home shard. Frees are routed by the record's
// owner_shard: same shard -> the ordinary locked path; cross-shard -> the
// owner's lock-free MPSC remote list (ShadowEngine::free_remote), drained on
// the owner's next allocation, on flush, or by the producer that crosses the
// backstop threshold. Detection guarantees under this routing are unchanged
// except for the bounded revocation delay documented in DESIGN.md §11.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/alloc_iface.h"
#include "alloc/heap.h"
#include "core/guarded_heap.h"

namespace dpg::core {

class ShardedHeap {
 public:
  static constexpr std::size_t kMaxShards = 64;

  // `shards` = 0 picks min(hardware_concurrency, 8). Clamped to
  // [1, kMaxShards].
  explicit ShardedHeap(vm::PhysArena& arena, GuardConfig cfg = {},
                       std::size_t shards = 0);
  ~ShardedHeap();

  ShardedHeap(const ShardedHeap&) = delete;
  ShardedHeap& operator=(const ShardedHeap&) = delete;

  [[nodiscard]] void* malloc(std::size_t size, SiteId site = 0);
  void free(void* p, SiteId site = 0);
  [[nodiscard]] void* calloc(std::size_t count, std::size_t size,
                             SiteId site = 0);
  [[nodiscard]] void* realloc(void* p, std::size_t new_size, SiteId site = 0);
  [[nodiscard]] std::size_t size_of(const void* p) const;

  // Rollup of per-shard snapshots. Each addend is a consistent cut of its
  // shard; after flush_all() (queues empty) cross-counter invariants hold on
  // the sum as well.
  [[nodiscard]] GuardStats stats() const;
  [[nodiscard]] alloc::HeapStats heap_stats() const { return heap_.stats(); }

  // Drains every shard's remote-free list and revocation queue: after this,
  // every free issued so far is revoked (revoked_spans catches up to frees).
  void flush_all();

  [[nodiscard]] std::size_t shards() const noexcept {
    return engines_.size();
  }
  [[nodiscard]] ShadowEngine& engine(std::size_t i) noexcept {
    return *engines_[i];
  }
  [[nodiscard]] const ShadowEngine& engine(std::size_t i) const noexcept {
    return *engines_[i];
  }
  // The calling thread's home shard (stable for the thread's lifetime).
  [[nodiscard]] ShadowEngine& home_engine() noexcept {
    return *engines_[home_shard()];
  }
  [[nodiscard]] vm::VaFreeList& shadow_freelist() noexcept {
    return shadow_va_;
  }

  // Oracle introspection (src/fuzz): same contracts as the ShadowEngine
  // hooks; revocation_applied routes to the record's owner engine so the
  // owner-lock-protected revocation_done flag is read correctly.
  [[nodiscard]] static const ObjectRecord* record_of(const void* p) {
    return ShadowEngine::record_of(p);
  }
  [[nodiscard]] bool revocation_applied(const void* p) const;

 private:
  [[nodiscard]] std::uint32_t home_shard() const noexcept;

  alloc::ArenaSource source_;
  alloc::SegregatedHeap heap_;  // internally mutexed; shared by all shards
  vm::VaFreeList shadow_va_;
  // Sampled-rung ledger, shared like the heap: a fast-path object allocated
  // on one shard may be freed through any shard's registry-miss path.
  SampledTable sampled_;
  // Engines must be destroyed before the members they reference; keep last.
  std::vector<std::unique_ptr<ShadowEngine>> engines_;
};

}  // namespace dpg::core
