// ShadowEngine + GuardedHeap — the paper's primary contribution (Section 3.2).
//
// Allocation: the request is passed to the underlying allocator with the size
// incremented by one word; the word before the user object records the
// canonical address. A fresh virtual page (or run) aliasing the canonical
// physical pages is created, and the caller receives the object *on the
// shadow page at the same offset within the page*. The underlying allocator
// still believes the object lives at the canonical address.
//
// Deallocation: the shadow span is revoked — every future read/write/free
// through any pointer to the object traps — and the *canonical* address is
// handed back to the underlying allocator, so the physical memory is reused
// exactly as in the original program. Revocation takes one of two forms,
// chosen by the owner (DESIGN.md §16):
//
//   bury      heap engines that reclaim through freed_va_budget (the preload
//             heap, bench_mt) replace the span with an anonymous PROT_NONE
//             mapping. Dead spans then merge into one VMA with their dead
//             neighbours, so only live objects cost a VMA each.
//   mprotect  pools, and heaps without a budget, mprotect(PROT_NONE) the
//             alias. The span keeps its own VMA but still aliases its
//             canonical pages, so when a pool is destroyed the next owner of
//             those pages re-enables it in place.
//
// Shadow virtual pages are reused only when their owner proves no pointers
// remain: pool destruction (GuardedPool), budgeted reclamation (§3.4
// strategy 1), or a conservative GC pass (§3.4 strategy 2) push spans onto a
// shared VA free list, and new shadow mappings are placed over recycled
// addresses with MAP_FIXED — no munmap per object. Spans that still alias
// their canonical pages (live ones, and mprotect-revoked ones) are parked
// keyed by those pages, so an allocation on the same pages takes one back
// with no remap at all (DESIGN.md §16); buried spans alias nothing and go
// back plain. Every dead span takes one route back (the per-shard recycle
// cache when configured, then the shared list, keyed or plain) and every
// MAP_FIXED target one route out.
//
// VMA gauge: the engine tells its governor about every file-backed mapping
// it owns — each record with an alias of its own (see alias_vmas), each live
// magazine window — at the sites that create, bury and release them. Ranges
// on the shared list are outside the gauge (buried ones merge with their
// dead neighbours; parked pool aliases are bounded by peak demand), so the
// list's munmaps need no report back.
//
// Scaling layers (DESIGN.md §11):
//
//   Slot magazines   one bulk mmap aliases a whole window of N canonical
//                    pages; objects landing in the window carve their shadow
//                    pages out of it with zero syscalls. A window slot serves
//                    one object per magazine generation (two objects on the
//                    same canonical page need two aliases), so collisions
//                    fall back to the per-object path — dense small-object
//                    packing costs what the paper's scheme cost, page-sized
//                    and marching allocations amortize to ~1/N.
//   Revocation queue freed spans accumulate (canonical reuse deferred with
//                    them), are address-sorted, coalesced into maximal runs,
//                    and revoked with one mprotect per run; flushed every
//                    protect_batch frees and at pooldestroy/teardown.
//   Remote frees     cross-shard frees transition the record kLive->kFreed
//                    at the free site (double-free detection stays exact and
//                    immediate) and queue the revocation on the owning
//                    shard's lock-free MPSC list, drained under that shard's
//                    lock (see ShardedHeap, core/sharded_heap.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "alloc/alloc_iface.h"
#include "alloc/heap.h"
#include "core/degrade.h"
#include "core/registry.h"
#include "core/sampled.h"
#include "core/stats.h"
#include "vm/shadow_map.h"
#include "vm/va_freelist.h"

namespace dpg::core {

struct GuardConfig {
  vm::AliasStrategy strategy = vm::AliasStrategy::kMemfd;
  // Reuse shadow VAs from the shared free list (MAP_FIXED path). Disable to
  // model the naive never-reuse scheme.
  bool reuse_shadow_va = true;
  // §3.4 strategy 1: when the bytes held by freed-but-still-guarded spans
  // exceed this budget, the oldest freed spans are recycled (giving up
  // detection for those objects, as the paper accepts). 0 = unlimited.
  // A budgeted heap revokes by burying (see the header comment).
  std::size_t freed_va_budget = 0;
  // Extension (paper §6 future work: combining with spatial checking): place
  // an anonymous PROT_NONE guard page after each object's shadow span, so
  // any access past the span's end traps as an overflow while the object is
  // still live. Page-granular: tail slack within the last data page is not
  // covered (the aliasing constraint pins the object's in-page offset).
  // Costs one extra virtual page per allocation, zero physical memory.
  // Incompatible with magazines (the guard page must NOT alias the arena);
  // when set, allocations take the per-object path.
  bool trailing_guard_page = false;
  // Extension (paper §6: reducing the per-deallocation syscall cost): defer
  // protection of freed objects and apply it in address-sorted batches,
  // merging adjacent shadow spans into single mprotect calls. The underlying
  // free is deferred with it, so freed memory is never reused before it is
  // protected — soundness against *reuse* is kept; the trade is a bounded
  // window (at most protect_batch frees) during which a dangling use reads
  // stale-but-unreused data undetected. Double frees stay exact throughout
  // (the record state transition, not the page protection, detects them).
  // 0 or 1 = protect immediately (0 is the paper's configuration).
  std::size_t protect_batch = 0;
  // Slot magazines: bulk-alias window size in pages (bench_mt, tests and
  // fuzz cells; the preload shim leaves them off). One mmap maps
  // `magazine_slots` contiguous canonical pages; allocations whose canonical
  // span lands on unclaimed slots of the window's current magazine get their
  // shadow pages with zero syscalls. 0 or 1 = off (the
  // paper's per-object alias). Clamped to [2, kMaxMagazineSlots].
  std::size_t magazine_slots = 0;
  // Degradation policy (core/degrade.h). nullptr = share the process-wide
  // governor; tests and benches pass their own to pin or observe the ladder.
  DegradationGovernor* governor = nullptr;
  // Exact double-free ledger for the sampled rung's unguarded fast path
  // (core/sampled.h). Must be shared across every engine that shares an
  // underlying heap (ShardedHeap wires its own in); nullptr = the engine
  // keeps a private table, correct for single-engine owners (GuardedHeap,
  // pools whose frees route back to the allocating pool).
  SampledTable* sampled_table = nullptr;
  // MAP_FIXED VA recycling: released shadow spans and retired magazine runs
  // park on a per-shard list (bounded to this many discontiguous runs)
  // instead of round-tripping through the shared VaFreeList. Parked spans
  // coalesce with contiguous neighbours, so a dying magazine generation's
  // slots reassemble into the window-sized run the next generation claims
  // with one MAP_FIXED re-alias — no freelist mutex, no trim-drain munmap
  // storm, no VMA churn. Overflow and teardown fall through to the shared
  // freelist. 0 = off. A bench_mt-only shape: spans parked here are not
  // counted against the VMA bound (neither the list's trim nor the governor
  // sees them), so the preload path leaves it off (DESIGN.md §16).
  std::size_t window_recycle_cap = 0;
};

// How an engine revokes a freed span; its owner decides (see the header
// comment). Heaps reclaim dead shadow VA only through the freed-VA budget
// and never re-enable a freed span in place, so a budgeted heap buries
// (heap_revocation); pools reclaim at pooldestroy, where keyed reuse
// re-enables revoked aliases, so they keep mprotect.
enum class Revocation { kProtect, kBury };

[[nodiscard]] inline Revocation heap_revocation(const GuardConfig& cfg) {
  return cfg.freed_va_budget != 0 ? Revocation::kBury : Revocation::kProtect;
}

class ShadowEngine {
 public:
  // `shadow_freelist` may be shared across engines (the paper's free list is
  // "shared across pools") and must outlive the engine.
  ShadowEngine(vm::PhysArena& arena, alloc::MallocLike& under,
               vm::VaFreeList& shadow_freelist, GuardConfig cfg = {},
               Revocation revocation = Revocation::kProtect);
  ~ShadowEngine();

  ShadowEngine(const ShadowEngine&) = delete;
  ShadowEngine& operator=(const ShadowEngine&) = delete;

  [[nodiscard]] void* malloc(std::size_t size, SiteId site = 0);
  void free(void* p, SiteId site = 0);
  [[nodiscard]] std::size_t size_of(const void* p) const;

  // calloc semantics: zeroed memory, overflow-checked count*size (returns
  // nullptr on overflow, like the C allocator contract).
  [[nodiscard]] void* calloc(std::size_t count, std::size_t size,
                             SiteId site = 0);
  // realloc semantics: grows/shrinks by move. The OLD pointer becomes a
  // guarded dangling pointer — the classic realloc-stale-alias bug class is
  // detected exactly like a free.
  [[nodiscard]] void* realloc(void* p, std::size_t new_size, SiteId site = 0);

  // Guard-elision fast path: serve the request straight from the underlying
  // (canonical) allocator — no shadow alias, no registry record, and the
  // matching free_unguarded issues no mprotect. Legal only for allocation
  // sites a static analysis classified SAFE (see compiler/uaf_analysis.h);
  // pointers from this path MUST be released via free_unguarded, never
  // free(). Counted in stats().guards_elided.
  [[nodiscard]] void* malloc_unguarded(std::size_t size, SiteId site = 0);
  void free_unguarded(void* p, SiteId site = 0);

  // Cross-shard free: callable from ANY thread, lock-free on this engine.
  // The record must be one of this engine's (rec->owner_shard routing is
  // ShardedHeap's job). Transitions kLive->kFreed via CAS right here — a
  // double free, including one racing the owner, raises immediately with an
  // exact report — then pushes the record onto the MPSC remote list; the
  // revocation mprotect and the canonical return happen when the owner (or
  // any caller, via drain_remote) next drains. Until that drain the span is
  // freed-but-unprotected: the same bounded detection-delay window as the
  // revocation queue, shrunk to zero by draining.
  void free_remote(void* p, SiteId site = 0);

  // Drains the remote-free list now (takes the engine lock; any thread may
  // call). Returns the number of remote frees revoked.
  std::size_t drain_remote();

  // Applies any deferred batched protections now (no-op when the revocation
  // queue is disabled or empty). Also drains the remote-free list first, so
  // after this call every free issued-and-routed so far is revoked.
  void flush_protections();

  // Releases *every* span this engine created (live and freed): purges the
  // registry and recycles the VAs. This is the pooldestroy path — legal only
  // when the caller can bound the lifetime of all pointers into the engine
  // (including concurrent remote frees: callers must quiesce other threads).
  void release_all();

  // Recycles freed spans until at least `bytes` are reclaimed (oldest first).
  // Returns bytes actually reclaimed. Used by the VA-budget strategy and GC.
  std::size_t reclaim_freed(std::size_t bytes);

  // --- conservative-GC support (advanced; see gc_scan.h) ---
  [[nodiscard]] std::vector<ObjectRecord*> freed_records();
  [[nodiscard]] std::vector<ObjectRecord*> live_records();
  void reclaim(ObjectRecord* rec);  // must be a freed record of this engine

  [[nodiscard]] GuardStats stats() const;
  // Live atomic counters for lock-free readers (metrics exporter, signal
  // dumps). See the memory-order contract in stats.h.
  [[nodiscard]] const GuardCounters& counters() const noexcept {
    return stats_;
  }
  // Writable counters for companion lanes (core/lockandkey.h) that account
  // against this engine. Lane writers bump relaxed atomics without the
  // engine lock: per-counter integrity holds, and the lane's counters have
  // no cross-counter invariant with the engine's own (see stats.h).
  [[nodiscard]] GuardCounters& lane_counters() noexcept { return stats_; }
  [[nodiscard]] alloc::MallocLike& underlying() noexcept { return under_; }

  static constexpr std::size_t kGuardHeader = sizeof(std::uintptr_t);
  static constexpr std::size_t kMaxMagazineSlots = 256;
  // Live-generation population cap per engine. Windows tile the arena's
  // file-offset space, so a churn-heavy workload keeps first-touching new
  // windows; without a cap every partially-claimed generation (one
  // window-sized shadow mapping each) lives until release_all — unbounded
  // RSS/VMA growth that the endurance soak flags as a leak. Over the cap the
  // fresh-generation path retires another generation first (its window falls
  // back to the per-object alias until re-touched).
  static constexpr std::size_t kMaxMagazineWindows = 256;

  // Shard identity (stamped into every record for cross-shard free routing).
  void set_shard_id(std::uint32_t id) noexcept { shard_id_ = id; }
  [[nodiscard]] std::uint32_t shard_id() const noexcept { return shard_id_; }

  // Diagnostics for tests/benches: remote frees queued but not yet drained,
  // and frees sitting in the revocation queue.
  [[nodiscard]] std::size_t remote_pending() const noexcept {
    return remote_pending_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending_revocations() const;
  // Bytes currently parked in the delayed-reuse quarantine and live magazine
  // generations — the soak harness samples both for drift.
  [[nodiscard]] std::size_t quarantine_depth_bytes() const;
  [[nodiscard]] std::size_t magazine_count() const;

  // --- oracle introspection (src/fuzz, tests) ---
  // Resolves a pointer previously returned by malloc to its record, or
  // nullptr for degraded/unguarded/foreign pointers. Interior pointers
  // resolve to nullptr too: the fuzzer uses this to learn whether an
  // allocation ended up guarded, so only exact user pointers count.
  [[nodiscard]] static const ObjectRecord* record_of(const void* p);
  // True when `p` is a freed guarded object whose free has been fully
  // processed by the owner engine — revocation attempted, canonical block
  // returned or quarantined. While mprotect is not being fault-injected
  // this is exactly "the span is PROT_NONE: a dereference MUST trap";
  // false means the free still sits in the revocation queue or on a remote
  // list, the documented bounded window where a stale (unreused) read is
  // legal. Under an armed mprotect fault plan a refused revocation also
  // reports true with the canonical block parked in quarantine, so the
  // stale read then sees unreused bytes instead of trapping.
  [[nodiscard]] bool revocation_applied(const void* p) const;

 private:
  // One magazine generation: a bulk alias of a whole canonical window. Slots
  // are claimed (bit set) once and never reused within the generation; the
  // generation retires when fully claimed or at release_all, recycling any
  // never-claimed slots.
  struct Magazine {
    std::uintptr_t shadow_base = 0;
    std::array<std::uint64_t, kMaxMagazineSlots / 64> claimed{};
    std::size_t free_slots = 0;
    // Collisions (slot already claimed) observed against this generation;
    // past a threshold the generation retires so heavy canonical-page reuse
    // gets a fresh set of slots instead of falling back forever.
    std::uint32_t misses = 0;
  };

  void* do_alloc_locked(std::size_t size, SiteId site);
  void* guarded_alloc_locked(std::size_t size, SiteId site);
  void* degraded_alloc_locked(std::size_t size, SiteId site);
  void* sampled_fast_alloc_locked(std::size_t size, SiteId site);
  void* fallback_alloc_locked(std::size_t size, SiteId site);
  void* alloc_canonical_locked(std::size_t bytes);
  void* install_record_locked(void* shadow_base, std::size_t span_len,
                              std::size_t guard, std::uintptr_t canon_addr,
                              std::uintptr_t first_page, std::size_t size,
                              SiteId site, bool own_alias);
  void* magazine_claim_locked(std::uintptr_t first_page, std::size_t data_span);
  void* take_alias_locked(std::uintptr_t first_page, std::size_t data_span);
  void flush_released_locked();
  void* take_va_locked(std::size_t len, bool may_split);
  void give_back_locked(vm::PageRange span, const ObjectRecord* rec = nullptr);
  void* take_recycled_locked(std::size_t len) noexcept;
  bool park_recycled_locked(vm::PageRange span);
  void drain_recycled_locked();
  void retire_magazine_locked(std::uintptr_t window_base, Magazine& m);
  void drop_magazines_locked();
  void free_locked(std::unique_lock<std::mutex>& lock, void* p, SiteId site);
  void degraded_free_locked(void* p, SiteId site);
  void quarantine_locked(void* block, std::size_t bytes);
  std::size_t drain_quarantine_locked();
  void revoke_locked(ObjectRecord* rec);
  vm::sys::IoResult revoke_span_locked(std::uintptr_t base, std::size_t len);
  void revoked_locked(ObjectRecord* rec);
  void uncount_alias_locked(ObjectRecord* rec) noexcept;
  [[nodiscard]] bool buries() const noexcept {
    return revocation_ == Revocation::kBury;
  }
  // What one live alias costs in the VMA gauge. Buried spans merge, so a
  // graveyard splits into separate VMAs only where something live sits
  // between its runs: on a burying engine each alias counts itself plus the
  // one graveyard run it can cut off (an upper bound, reached when lifetimes
  // interleave). An mprotect-revoked span keeps its own VMA and stays counted
  // until release, so there an alias is one.
  [[nodiscard]] long alias_vmas() const noexcept { return buries() ? 2 : 1; }
  void maybe_flush_locked();
  std::size_t drain_remote_locked();
  void release_record_locked(ObjectRecord* rec);
  void unlink_locked(ObjectRecord* rec) noexcept;
  void flush_protections_locked();
  void enforce_budget_locked();
  [[nodiscard]] bool degraded_pointers_possible() const noexcept;

  vm::PhysArena& arena_;
  alloc::MallocLike& under_;
  vm::VaFreeList& shadow_freelist_;
  vm::ShadowMapper mapper_;
  GuardConfig cfg_;
  const Revocation revocation_;
  DegradationGovernor* gov_;
  std::uint32_t shard_id_ = 0;

  // Sampled-rung fast-path ledger: the config's shared table, else private.
  SampledTable own_sampled_;
  SampledTable* sampled_;

  // Per-shard MAP_FIXED recycle cache (cfg_.window_recycle_cap runs max,
  // sorted by base, contiguous neighbours merged): released shadow spans and
  // retired magazine runs wait here to be re-aliased, bypassing the shared
  // freelist. Drained to the freelist at release_all.
  std::vector<vm::PageRange> va_recycle_;

  // Spans released since the last flush_released_locked(): keyed by the
  // canonical pages they alias, or plain (merged with address neighbours at
  // the flush). Every release_record_locked caller flushes both.
  std::vector<vm::VaFreeList::Alias> keyed_batch_;
  std::vector<vm::PageRange> plain_batch_;

  // Slot magazines: canonical-window base -> current generation.
  std::size_t magazine_slots_ = 0;  // validated; 0 = off
  std::size_t magazine_bytes_ = 0;
  std::unordered_map<std::uintptr_t, Magazine> magazines_;

  // Cross-shard remote-free list (MPSC: producers CAS-push lock-free,
  // consumer exchanges the head under mu_).
  std::atomic<ObjectRecord*> remote_head_{nullptr};
  std::atomic<std::size_t> remote_pending_{0};
  std::size_t remote_drain_threshold_ = 256;

  // Delayed-reuse quarantine for degraded frees (and for canonical blocks
  // whose revocation mprotect was refused): the physical memory is parked,
  // not recycled, so a stale pointer reads stale-but-unreused data instead of
  // a new owner's — detection is suspended, never falsified (DESIGN.md §10).
  struct QuarantineEntry {
    void* block;
    std::size_t bytes;
  };
  std::deque<QuarantineEntry> quarantine_;
  std::size_t quarantine_bytes_ = 0;

  mutable std::mutex mu_;
  ObjectRecord head_;  // intrusive list sentinel, oldest first
  std::vector<ObjectRecord*> pending_protect_;  // revocation queue
  std::size_t freed_bytes_held_ = 0;
  GuardCounters stats_;
};

// GuardedHeap: drop-in malloc/free built from a SegregatedHeap inside a
// PhysArena plus a ShadowEngine. This is the "directly applicable to
// binaries" configuration (no pool allocation): just intercept malloc/free.
// Single-engine; the multi-core configuration is ShardedHeap
// (core/sharded_heap.h).
class GuardedHeap {
 public:
  explicit GuardedHeap(vm::PhysArena& arena, GuardConfig cfg = {});
  ~GuardedHeap();

  [[nodiscard]] void* malloc(std::size_t size, SiteId site = 0) {
    return engine_.malloc(size, site);
  }
  void free(void* p, SiteId site = 0) { engine_.free(p, site); }
  [[nodiscard]] void* calloc(std::size_t count, std::size_t size,
                             SiteId site = 0) {
    return engine_.calloc(count, size, site);
  }
  [[nodiscard]] void* realloc(void* p, std::size_t new_size, SiteId site = 0) {
    return engine_.realloc(p, new_size, site);
  }
  [[nodiscard]] std::size_t size_of(const void* p) const {
    return engine_.size_of(p);
  }

  [[nodiscard]] GuardStats stats() const { return engine_.stats(); }
  [[nodiscard]] alloc::HeapStats heap_stats() const { return heap_.stats(); }
  [[nodiscard]] ShadowEngine& engine() noexcept { return engine_; }
  [[nodiscard]] vm::VaFreeList& shadow_freelist() noexcept { return shadow_va_; }

 private:
  alloc::ArenaSource source_;
  alloc::SegregatedHeap heap_;
  vm::VaFreeList shadow_va_;
  ShadowEngine engine_;
};

}  // namespace dpg::core
