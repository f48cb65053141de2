#include "core/sharded_heap.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/registry.h"

namespace dpg::core {

namespace {

std::size_t default_shards() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

}  // namespace

ShardedHeap::ShardedHeap(vm::PhysArena& arena, GuardConfig cfg,
                         std::size_t shards)
    : source_(arena), heap_(source_) {
  const std::size_t n =
      std::clamp<std::size_t>(shards == 0 ? default_shards() : shards, 1,
                              kMaxShards);
  // All shards share the governor: if the caller didn't pin one, resolve the
  // process governor once here rather than letting each engine default to it
  // independently (same object either way; this makes the sharing explicit).
  if (cfg.governor == nullptr) cfg.governor = &DegradationGovernor::process();
  // One sampled-rung ledger across shards (the underlying heap is shared, so
  // a fast-path pointer may come back on any shard's free path).
  if (cfg.sampled_table == nullptr) cfg.sampled_table = &sampled_;
  // freed_va_budget bounds what ONE engine may hold in revoked-but-unreleased
  // spans; the kernel's vm.max_map_count is a per-process limit, so split the
  // caller's bound across shards — otherwise N shards hold N× the configured
  // VA and a wide heap walks the process straight into mprotect ENOMEM.
  if (cfg.freed_va_budget != 0) {
    cfg.freed_va_budget = std::max<std::size_t>(cfg.freed_va_budget / n,
                                                std::size_t{1} << 20);
  }
  engines_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engines_.push_back(
        std::make_unique<ShadowEngine>(arena, heap_, shadow_va_, cfg,
                                       heap_revocation(cfg)));
    engines_.back()->set_shard_id(static_cast<std::uint32_t>(i));
  }
  // Same arena integration as GuardedHeap: the shared shadow VA list is the
  // emergency VMA-relief source.
  arena.add_relief_source(&shadow_va_);
}

ShardedHeap::~ShardedHeap() {
  source_.arena().remove_relief_source(&shadow_va_);
  // engines_ (declared last) is destroyed first; each engine's release_all
  // drains its own remote list and returns its spans to shadow_va_.
}

std::uint32_t ShardedHeap::home_shard() const noexcept {
  // Round-robin thread pinning: the token is assigned on a thread's first
  // allocation and never changes, so a thread's allocations all carry the
  // same owner_shard and its same-thread frees take the uncontended path.
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token % static_cast<std::uint32_t>(engines_.size());
}

void* ShardedHeap::malloc(std::size_t size, SiteId site) {
  return engines_[home_shard()]->malloc(size, site);
}

void* ShardedHeap::calloc(std::size_t count, std::size_t size, SiteId site) {
  return engines_[home_shard()]->calloc(count, size, site);
}

void ShardedHeap::free(void* p, SiteId site) {
  if (p == nullptr) return;
  const ObjectRecord* rec =
      ShadowRegistry::global().lookup(vm::addr(p));
  const std::uint32_t home = home_shard();
  if (rec == nullptr) {
    // Degraded pointer (any shard's — the underlying heap is shared) or an
    // invalid free; the home engine owns that disposition.
    engines_[home]->free(p, site);
    return;
  }
  const std::uint32_t owner = rec->owner_shard;
  if (owner == home) {
    engines_[owner]->free(p, site);
  } else {
    // Cross-thread free: exact kLive->kFreed transition at this call site
    // (double frees trap immediately), revocation queued to the owner.
    engines_[owner]->free_remote(p, site);
  }
}

void* ShardedHeap::realloc(void* p, std::size_t new_size, SiteId site) {
  if (p == nullptr) return malloc(new_size, site);
  const ObjectRecord* rec =
      ShadowRegistry::global().lookup(vm::addr(p));
  // Route the whole realloc to the owner so the old record's free takes the
  // ordinary locked path (the replacement lands on the owner shard too —
  // acceptable: realloc implies the object migrates ownership rarely).
  const std::uint32_t idx = rec != nullptr ? rec->owner_shard : home_shard();
  return engines_[idx]->realloc(p, new_size, site);
}

bool ShardedHeap::revocation_applied(const void* p) const {
  const ObjectRecord* rec = record_of(p);
  if (rec == nullptr) return false;
  return engines_[rec->owner_shard]->revocation_applied(p);
}

std::size_t ShardedHeap::size_of(const void* p) const {
  // The registry is global, so any engine resolves any guarded pointer.
  return engines_[0]->size_of(p);
}

GuardStats ShardedHeap::stats() const {
  GuardStats total;
  for (const auto& e : engines_) total += e->stats();
  return total;
}

void ShardedHeap::flush_all() {
  // Draining a shard never queues work onto another shard (revocation is
  // shard-local), so one pass leaves every queue empty — provided no other
  // thread is concurrently freeing, which is the caller's contract for
  // "every free issued so far".
  for (auto& e : engines_) e->flush_protections();
}

}  // namespace dpg::core
