// Counters the guard layer keeps; these feed EXPERIMENTS.md, the §4.3
// address-space study (bench_addrspace), and the obs metrics exporter.
//
// Memory-order contract
// ---------------------
// `GuardCounters` is the live, atomically-updated form; `GuardStats` is a
// plain snapshot of it.
//
//   - Writers: every mutation is a relaxed atomic RMW performed while holding
//     the owning ShadowEngine's lock (exception: the cross-shard remote-free
//     entry point bumps frees/double_frees/remote_frees locklessly — those
//     are plain counters with no cross-counter invariant at that instant).
//     The lock serializes same-engine writers, so relaxed ordering is
//     sufficient for counter integrity; atomicity exists for the benefit of
//     lock-free readers and the remote-free path.
//   - Coherent reads: ShadowEngine::stats() snapshots under that same lock,
//     so the returned GuardStats is a consistent cut — cross-counter
//     invariants (e.g. protect_calls + protect_calls_saved == frees after a
//     flush) hold exactly. ShardedHeap::stats() sums per-shard snapshots;
//     each addend is coherent, the sum is coherent once remote queues are
//     drained (flush_all()).
//   - Lock-free reads: the metrics exporter, the SIGUSR1 dump, and the fault
//     path call GuardCounters::snapshot() without the lock (signal context
//     cannot take it). Each counter is then individually torn-free, but the
//     set may straddle an in-flight operation: cross-counter invariants can
//     be off by the handful of updates the concurrent mutator has made so
//     far. Diagnostics tolerate that skew; tests must use stats().
//
// False sharing: each atomic sits on its own cache line (vm::kCacheLine).
// Before padding, every malloc/free on every thread bounced the line holding
// `allocations`/`frees` between cores; with per-shard engines the counters
// are mostly shard-private, and padding keeps a reader (exporter) or the
// remote-free producer from invalidating the owner's hot line.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "vm/vm_stats.h"  // vm::kCacheLine

namespace dpg::core {

// Plain snapshot (copyable, no atomics). See the contract above for when a
// snapshot is a consistent cut versus per-counter accurate.
struct GuardStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t shadow_pages_mapped = 0;   // fresh virtual pages consumed
  std::uint64_t shadow_pages_reused = 0;   // satisfied from the VA free list
  std::uint64_t va_reclaimed_pages = 0;    // pages recycled (pool destroy /
                                           // budget / GC)
  std::uint64_t double_frees = 0;
  std::uint64_t invalid_frees = 0;
  std::uint64_t protect_calls = 0;        // mprotect calls actually issued
  std::uint64_t protect_calls_saved = 0;  // frees amortized by batching
  std::uint64_t guards_elided = 0;        // allocations served unguarded
                                           // (static analysis proved the
                                           // site SAFE; no shadow alias, no
                                           // PROT_NONE at free)
  std::uint64_t degraded_allocs = 0;      // served without a guard because
                                           // the DegradationGovernor demoted
                                           // the engine (core/degrade.h)
  std::uint64_t quarantined_frees = 0;    // degraded frees parked in the
                                           // delayed-reuse quarantine
  std::uint64_t guard_failures = 0;       // kernel refused a guard syscall
                                           // (alias mmap / revocation
                                           // mprotect); detection suspended
                                           // for the affected object
  std::uint64_t magazine_maps = 0;        // bulk alias mmaps (one per
                                           // magazine generation)
  std::uint64_t magazine_hits = 0;        // allocations carved from a live
                                           // magazine: zero syscalls
  std::uint64_t magazine_slots_recycled = 0;  // never-claimed slots returned
                                           // to the VA free list when a
                                           // generation retires
  std::uint64_t revoke_batches = 0;       // batched-revocation flushes
  std::uint64_t revoke_coalesced_pages = 0;  // pages covered by merged
                                           // revocation runs
  std::uint64_t revoked_spans = 0;        // freed records whose shadow span
                                           // reached PROT_NONE (exactness
                                           // audit: frees - quarantined
                                           // frees - pending == revoked)
  std::uint64_t remote_frees = 0;         // frees queued cross-shard onto
                                           // the owner's MPSC list
  std::uint64_t sampled_allocs = 0;       // sampled-rung allocations served
                                           // on the unguarded fast path (the
                                           // 1-in-N winners count under
                                           // allocations like any guard)
  std::uint64_t sampled_frees = 0;        // frees of those fast-path objects
                                           // resolved via the sampled ledger
                                           // (exact double-free detection
                                           // kept; block quarantined)
  std::uint64_t tagged_allocs = 0;        // lock-and-key lane allocations
                                           // (tag-in-pointer, no shadow
                                           // alias, no mprotect)
  std::uint64_t tagged_frees = 0;         // lock-and-key frees that passed
                                           // the generation check
  std::uint64_t tag_mismatches = 0;       // lock-and-key detections: pointer
                                           // tag != slot generation word
  std::uint64_t window_recycle_hits = 0;  // aliases placed MAP_FIXED over a
                                           // span from the per-shard recycle
                                           // cache (no freelist round trip)
  std::uint64_t window_recycle_puts = 0;  // spans parked on that cache
  std::uint64_t va_keyed_hits = 0;        // aliases taken from the shared
                                           // list's keyed index: the span
                                           // already mapped these canonical
                                           // pages, so no remap
  std::uint64_t va_keyed_upgrades = 0;    // of those, revoked spans re-
                                           // enabled with one mprotect(RW)
  std::size_t live_records = 0;            // live + freed-but-still-guarded
  std::size_t guarded_bytes = 0;           // shadow span bytes currently held

  // Shard rollup (ShardedHeap::stats): field-wise sum.
  GuardStats& operator+=(const GuardStats& o) noexcept {
    allocations += o.allocations;
    frees += o.frees;
    shadow_pages_mapped += o.shadow_pages_mapped;
    shadow_pages_reused += o.shadow_pages_reused;
    va_reclaimed_pages += o.va_reclaimed_pages;
    double_frees += o.double_frees;
    invalid_frees += o.invalid_frees;
    protect_calls += o.protect_calls;
    protect_calls_saved += o.protect_calls_saved;
    guards_elided += o.guards_elided;
    degraded_allocs += o.degraded_allocs;
    quarantined_frees += o.quarantined_frees;
    guard_failures += o.guard_failures;
    magazine_maps += o.magazine_maps;
    magazine_hits += o.magazine_hits;
    magazine_slots_recycled += o.magazine_slots_recycled;
    revoke_batches += o.revoke_batches;
    revoke_coalesced_pages += o.revoke_coalesced_pages;
    revoked_spans += o.revoked_spans;
    remote_frees += o.remote_frees;
    sampled_allocs += o.sampled_allocs;
    sampled_frees += o.sampled_frees;
    tagged_allocs += o.tagged_allocs;
    tagged_frees += o.tagged_frees;
    tag_mismatches += o.tag_mismatches;
    window_recycle_hits += o.window_recycle_hits;
    window_recycle_puts += o.window_recycle_puts;
    va_keyed_hits += o.va_keyed_hits;
    va_keyed_upgrades += o.va_keyed_upgrades;
    live_records += o.live_records;
    guarded_bytes += o.guarded_bytes;
    return *this;
  }
};

// Live counters. Field-for-field the atomic twin of GuardStats, one cache
// line per counter (see the false-sharing note above).
struct GuardCounters {
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> allocations{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> shadow_pages_mapped{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> shadow_pages_reused{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> va_reclaimed_pages{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> double_frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> invalid_frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> protect_calls{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> protect_calls_saved{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> guards_elided{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> degraded_allocs{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> quarantined_frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> guard_failures{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> magazine_maps{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> magazine_hits{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> magazine_slots_recycled{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> revoke_batches{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> revoke_coalesced_pages{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> revoked_spans{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> remote_frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> sampled_allocs{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> sampled_frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> tagged_allocs{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> tagged_frees{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> tag_mismatches{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> window_recycle_hits{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> window_recycle_puts{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> va_keyed_hits{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> va_keyed_upgrades{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> live_records{0};
  alignas(vm::kCacheLine) std::atomic<std::uint64_t> guarded_bytes{0};

  [[nodiscard]] GuardStats snapshot() const noexcept {
    GuardStats s;
    s.allocations = allocations.load(std::memory_order_relaxed);
    s.frees = frees.load(std::memory_order_relaxed);
    s.shadow_pages_mapped = shadow_pages_mapped.load(std::memory_order_relaxed);
    s.shadow_pages_reused = shadow_pages_reused.load(std::memory_order_relaxed);
    s.va_reclaimed_pages = va_reclaimed_pages.load(std::memory_order_relaxed);
    s.double_frees = double_frees.load(std::memory_order_relaxed);
    s.invalid_frees = invalid_frees.load(std::memory_order_relaxed);
    s.protect_calls = protect_calls.load(std::memory_order_relaxed);
    s.protect_calls_saved =
        protect_calls_saved.load(std::memory_order_relaxed);
    s.guards_elided = guards_elided.load(std::memory_order_relaxed);
    s.degraded_allocs = degraded_allocs.load(std::memory_order_relaxed);
    s.quarantined_frees = quarantined_frees.load(std::memory_order_relaxed);
    s.guard_failures = guard_failures.load(std::memory_order_relaxed);
    s.magazine_maps = magazine_maps.load(std::memory_order_relaxed);
    s.magazine_hits = magazine_hits.load(std::memory_order_relaxed);
    s.magazine_slots_recycled =
        magazine_slots_recycled.load(std::memory_order_relaxed);
    s.revoke_batches = revoke_batches.load(std::memory_order_relaxed);
    s.revoke_coalesced_pages =
        revoke_coalesced_pages.load(std::memory_order_relaxed);
    s.revoked_spans = revoked_spans.load(std::memory_order_relaxed);
    s.remote_frees = remote_frees.load(std::memory_order_relaxed);
    s.sampled_allocs = sampled_allocs.load(std::memory_order_relaxed);
    s.sampled_frees = sampled_frees.load(std::memory_order_relaxed);
    s.tagged_allocs = tagged_allocs.load(std::memory_order_relaxed);
    s.tagged_frees = tagged_frees.load(std::memory_order_relaxed);
    s.tag_mismatches = tag_mismatches.load(std::memory_order_relaxed);
    s.window_recycle_hits =
        window_recycle_hits.load(std::memory_order_relaxed);
    s.window_recycle_puts =
        window_recycle_puts.load(std::memory_order_relaxed);
    s.va_keyed_hits = va_keyed_hits.load(std::memory_order_relaxed);
    s.va_keyed_upgrades = va_keyed_upgrades.load(std::memory_order_relaxed);
    s.live_records = static_cast<std::size_t>(
        live_records.load(std::memory_order_relaxed));
    s.guarded_bytes = static_cast<std::size_t>(
        guarded_bytes.load(std::memory_order_relaxed));
    return s;
  }
};

}  // namespace dpg::core
