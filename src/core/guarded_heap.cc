#include "core/guarded_heap.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/fault_manager.h"
#include "obs/backtrace.h"
#include "obs/metrics.h"
#include "vm/sys.h"
#include "vm/vm_stats.h"

namespace dpg::core {

namespace {

// Site-backtrace staging: public entry points capture the caller's frames
// into these before taking the engine lock; the consumers (record install,
// the free CAS winner) copy them into the slot header. Thread-local, so a
// cross-shard free staged on thread A is consumed by A's own free_remote
// call, never by the owner shard's drain. Zero work at DPG_SITE_DEPTH=0.
struct StagedStack {
  std::uintptr_t frames[obs::kMaxSiteFrames];
  std::size_t depth = 0;
};
thread_local StagedStack t_alloc_stage;
thread_local StagedStack t_free_stage;

// noinline callees of the [[gnu::noinline]] walker: the first captured frame
// is the public entry (malloc/free/...) itself, then the application chain.
void stage_alloc_stack() noexcept {
  t_alloc_stage.depth =
      obs::capture_site_stack(t_alloc_stage.frames, obs::kMaxSiteFrames);
}

void stage_free_stack() noexcept {
  t_free_stage.depth =
      obs::capture_site_stack(t_free_stage.frames, obs::kMaxSiteFrames);
}

void consume_alloc_stage(ObjectRecord& rec) noexcept {
  rec.alloc_stack_depth = static_cast<std::uint8_t>(t_alloc_stage.depth);
  for (std::size_t i = 0; i < t_alloc_stage.depth; ++i) {
    rec.alloc_stack[i] = t_alloc_stage.frames[i];
  }
}

// Only the kLive->kFreed CAS winner calls this; release-publishing the depth
// after the frames keeps the fault handler's acquire read tear-free.
void consume_free_stage(ObjectRecord& rec) noexcept {
  for (std::size_t i = 0; i < t_free_stage.depth; ++i) {
    rec.free_stack[i] = t_free_stage.frames[i];
  }
  rec.free_stack_depth.store(static_cast<std::uint8_t>(t_free_stage.depth),
                             std::memory_order_release);
}

// Process-wide keyed-reuse tallies (pool engines come and go; the exported
// series must survive them). Split so a trace can tell how much of
// dpg_mprotect_calls re-enables recycled spans rather than revoking frees.
std::atomic<std::uint64_t> g_va_keyed_hits{0};
std::atomic<std::uint64_t> g_va_keyed_upgrades{0};

void register_keyed_counters() noexcept {
  static const bool once = [] {
    obs::register_counter("dpg_va_keyed_hits", &g_va_keyed_hits);
    obs::register_counter("dpg_va_keyed_upgrades", &g_va_keyed_upgrades);
    return true;
  }();
  (void)once;
}

}  // namespace

ShadowEngine::ShadowEngine(vm::PhysArena& arena, alloc::MallocLike& under,
                           vm::VaFreeList& shadow_freelist, GuardConfig cfg,
                           Revocation revocation)
    : arena_(arena),
      under_(under),
      shadow_freelist_(shadow_freelist),
      mapper_(arena, cfg.strategy),
      cfg_(cfg),
      revocation_(revocation),
      gov_(cfg.governor != nullptr ? cfg.governor
                                   : &DegradationGovernor::process()),
      sampled_(cfg.sampled_table != nullptr ? cfg.sampled_table
                                            : &own_sampled_) {
  head_.prev = &head_;
  head_.next = &head_;
  // Magazines need every span page to be an arena alias; a trailing guard
  // page cannot come from the magazine, so the config is mutually exclusive.
  if (cfg_.magazine_slots >= 2 && !cfg_.trailing_guard_page) {
    magazine_slots_ = std::min(cfg_.magazine_slots, kMaxMagazineSlots);
    magazine_bytes_ = magazine_slots_ * vm::kPageSize;
  }
  remote_drain_threshold_ =
      std::max<std::size_t>(cfg_.protect_batch * 2, std::size_t{256});
  obs::init_from_env();  // idempotent: arms DPG_TRACE / DPG_METRICS_* knobs
  register_keyed_counters();
  FaultManager::instance().install();
}

ShadowEngine::~ShadowEngine() { release_all(); }

void* ShadowEngine::malloc(std::size_t size, SiteId site) {
  obs::ScopedLatency lat(obs::Hist::kAllocNs);
  stage_alloc_stack();
  std::lock_guard lock(mu_);
  return do_alloc_locked(size, site);
}

void* ShadowEngine::calloc(std::size_t count, std::size_t size, SiteId site) {
  if (count != 0 && size > std::numeric_limits<std::size_t>::max() / count) {
    return nullptr;  // multiplication would overflow: the calloc contract
  }
  const std::size_t total = count * size;
  obs::ScopedLatency lat(obs::Hist::kAllocNs);
  stage_alloc_stack();
  std::lock_guard lock(mu_);
  void* p = do_alloc_locked(total, site);
  // Canonical blocks are recycled, so the memory may hold stale bytes.
  if (p != nullptr) std::memset(p, 0, total);
  return p;
}

void* ShadowEngine::malloc_unguarded(std::size_t size, SiteId site) {
  (void)site;  // diagnostics parity with malloc; nothing to record per object
  std::lock_guard lock(mu_);
  void* p = alloc_canonical_locked(size);
  if (p != nullptr) {
    stats_.guards_elided.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

void ShadowEngine::free_unguarded(void* p, SiteId site) {
  (void)site;
  if (p == nullptr) return;
  std::lock_guard lock(mu_);
  under_.free(p);
}

void* ShadowEngine::realloc(void* p, std::size_t new_size, SiteId site) {
  if (p == nullptr) return malloc(new_size, site);
  // One capture serves both halves of the move: the new record's alloc stack
  // and the old record's free stack are the same realloc call site.
  stage_alloc_stack();
  t_free_stage = t_alloc_stage;
  std::unique_lock lock(mu_);
  if (new_size == 0) {
    free_locked(lock, p, site);
    return nullptr;
  }
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  if (rec == nullptr && !sampled_->empty()) {
    SampledTable::Entry ent;
    if (sampled_->lookup_live(vm::addr(p), &ent)) {
      // Fast-path object: move via whatever the current rung dictates; the
      // old block then takes the exact ledger free (quarantined above).
      void* fresh = do_alloc_locked(new_size, site);
      if (fresh == nullptr) return nullptr;  // old block stays valid
      std::memcpy(fresh, p, ent.size < new_size ? ent.size : new_size);
      free_locked(lock, p, site);
      return fresh;
    }
    if (sampled_->is_freed(vm::addr(p))) {
      // Stale fast-path pointer: same disposition as a double free.
      free_locked(lock, p, site);  // raises; does not return
    }
  }
  if (rec == nullptr && degraded_pointers_possible()) {
    // Pointer from a degraded allocation: move it through whatever path the
    // current mode dictates. size_of reads the allocator's own header.
    const std::size_t old_size = under_.size_of(p);
    void* fresh = do_alloc_locked(new_size, site);
    if (fresh == nullptr) return nullptr;  // old block stays valid (contract)
    std::memcpy(fresh, p, old_size < new_size ? old_size : new_size);
    degraded_free_locked(p, site);
    return fresh;
  }
  if (rec == nullptr || rec->user_shadow != vm::addr(p) ||
      rec->state.load(std::memory_order_acquire) == ObjectState::kFreed) {
    // Stale or foreign pointer: same disposition as an invalid/double free.
    free_locked(lock, p, site);  // raises; does not return
  }
  const std::size_t old_size = rec->user_size;
  void* fresh = do_alloc_locked(new_size, site);
  if (fresh == nullptr) return nullptr;  // old block stays valid (contract)
  std::memcpy(fresh, p, old_size < new_size ? old_size : new_size);
  // The old pointer is now a guarded dangling pointer (realloc's contract:
  // any use of `p` after this point is a temporal error and will trap).
  free_locked(lock, p, site);
  return fresh;
}

void* ShadowEngine::do_alloc_locked(std::size_t size, SiteId site) {
  // Piggyback remote-free draining on the allocation path: the owner shard
  // revokes cross-thread frees the next time it allocates, bounding the
  // detection-delay window without a dedicated thread. One relaxed load when
  // the list is empty.
  if (remote_head_.load(std::memory_order_relaxed) != nullptr) {
    drain_remote_locked();
  }
  switch (gov_->on_alloc()) {
    case GuardMode::kFullGuard:
      return guarded_alloc_locked(size, site);
    case GuardMode::kSampled:
      // 1-in-N winners get the full shadow alias; the rest take the ledgered
      // fast path (exact double-free detection, no VMA, no syscall).
      return gov_->sample_this_alloc() ? guarded_alloc_locked(size, site)
                                       : sampled_fast_alloc_locked(size, site);
    case GuardMode::kQuarantineOnly:
    case GuardMode::kUnguarded:
      break;
  }
  return degraded_alloc_locked(size, site);
}

// Underlying allocation with exhaustion handling: on bad_alloc the governor
// is told, the quarantine is returned to the allocator, and the request is
// retried once. nullptr = genuinely out of physical memory.
void* ShadowEngine::alloc_canonical_locked(std::size_t bytes) {
  void* p = nullptr;
  try {
    p = under_.malloc(bytes);
  } catch (const std::bad_alloc&) {
    gov_->on_arena_exhausted();
  }
  if (p == nullptr) {
    if (drain_quarantine_locked() == 0) return nullptr;
    try {
      p = under_.malloc(bytes);
    } catch (const std::bad_alloc&) {
      return nullptr;
    }
  }
  // The allocator just (re)bound this canonical address; a stale sampled-
  // ledger entry must not outlive the old binding (the emptiness gate keeps
  // this off the hot path for every run that never reached the sampled rung).
  if (p != nullptr && !sampled_->empty()) sampled_->forget(vm::addr(p));
  return p;
}

void* ShadowEngine::degraded_alloc_locked(std::size_t size, SiteId site) {
  // No shadow alias, no registry record, no new VMA: the canonical pointer
  // itself is handed out. Recognized at free time by registry miss (see
  // free_locked), which is unambiguous only because every guarded user
  // pointer lives on a shadow page.
  void* p = alloc_canonical_locked(size);
  if (p == nullptr) return nullptr;
  stats_.degraded_allocs.fetch_add(1, std::memory_order_relaxed);
  gov_->count_degraded_alloc();
  obs::record_event(obs::EventKind::kAlloc, vm::addr(p), size, site);
  return p;
}

void* ShadowEngine::sampled_fast_alloc_locked(std::size_t size, SiteId site) {
  // Sampled rung, unsampled allocation: canonical pointer out, no alias, no
  // registry record — but unlike the degraded path the ledger keeps the
  // {site, size} binding so a double free of this pointer is still exact.
  void* p = alloc_canonical_locked(size);
  if (p == nullptr) return nullptr;
  sampled_->insert(vm::addr(p), size, site);
  stats_.sampled_allocs.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kAlloc, vm::addr(p), size, site);
  return p;
}

void* ShadowEngine::fallback_alloc_locked(std::size_t size, SiteId site) {
  // A guard-path refusal just moved the ladder; re-serve through whatever
  // rung it landed on. The oracle classifies pointers by the POST-op rung,
  // so the fallback must take the same branch an ordinary allocation under
  // the new rung would (sampled rung: this allocation was not guarded, so it
  // is a fast-path object regardless of what the next sample draw says).
  return gov_->mode() == GuardMode::kSampled
             ? sampled_fast_alloc_locked(size, site)
             : degraded_alloc_locked(size, site);
}

bool ShadowEngine::degraded_pointers_possible() const noexcept {
  // A registry miss at free time can only be a degraded pointer if SOME
  // engine sharing this governor has served one: shards share the underlying
  // heap, so a degraded canonical pointer may be freed on any shard, not just
  // the one that allocated it.
  return stats_.degraded_allocs.load(std::memory_order_relaxed) != 0 ||
         gov_->counters().degraded_allocs.load(std::memory_order_relaxed) != 0;
}

void* ShadowEngine::install_record_locked(void* shadow_base,
                                          std::size_t span_len,
                                          std::size_t guard,
                                          std::uintptr_t canon_addr,
                                          std::uintptr_t first_page,
                                          std::size_t size, SiteId site,
                                          bool own_alias) {
  // Header word: the canonical address, written through the shadow view (the
  // same physical memory, so the underlying allocator could equally read it
  // at the canonical address).
  const std::uintptr_t shadow_canon =
      vm::addr(shadow_base) + (canon_addr - first_page);
  *reinterpret_cast<std::uintptr_t*>(shadow_canon) = canon_addr;

  auto* rec = new ObjectRecord;
  rec->shadow_base = vm::addr(shadow_base);
  rec->span_length = span_len;
  rec->guard_length = guard;
  rec->user_shadow = shadow_canon + kGuardHeader;
  rec->user_size = size;
  rec->canonical = canon_addr;
  rec->alloc_site = site;
  consume_alloc_stage(*rec);
  rec->owner_shard = shard_id_;
  rec->state.store(ObjectState::kLive, std::memory_order_release);
  if (own_alias) {
    rec->alias_vma = true;
    gov_->add_vmas(alias_vmas());
  }

  // Append at tail: the list stays ordered oldest-first for reclamation.
  rec->prev = head_.prev;
  rec->next = &head_;
  head_.prev->next = rec;
  head_.prev = rec;

  ShadowRegistry::global().insert(*rec);

  stats_.allocations.fetch_add(1, std::memory_order_relaxed);
  stats_.live_records.fetch_add(1, std::memory_order_relaxed);
  stats_.guarded_bytes.fetch_add(span_len, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kAlloc, rec->user_shadow, size, site);
  return reinterpret_cast<void*>(rec->user_shadow);
}

// Where dead shadow VA goes, decided here and nowhere else: the per-shard
// recycle cache first, then the shared list — keyed by the canonical pages
// it aliases when it is a released record's span without a guard tail,
// plain otherwise. A burying engine keys only spans that were still live:
// its freed spans were buried and alias nothing, and a permission upgrade of
// one would hand out anonymous zero pages in place of the object's canonical
// memory. Released records' spans wait in a batch until
// flush_released_locked; other spans go to the list at once. Every caller
// either proved no pointer into `span` survives or never handed one out.
void ShadowEngine::give_back_locked(vm::PageRange span,
                                    const ObjectRecord* rec) {
  if (park_recycled_locked(span)) return;
  if (rec != nullptr && rec->guard_length == 0 && cfg_.reuse_shadow_va) {
    const bool live =
        rec->state.load(std::memory_order_relaxed) == ObjectState::kLive;
    if (live || !buries()) {
      const void* first_page =
          reinterpret_cast<void*>(vm::page_down(rec->canonical));
      keyed_batch_.push_back(
          vm::VaFreeList::Alias{span, arena_.offset_of(first_page), live});
      return;
    }
  }
  if (rec != nullptr) {
    plain_batch_.push_back(span);
    return;
  }
  shadow_freelist_.put(span);
}

// Where a MAP_FIXED target comes from: the per-shard cache, then the shared
// list (plain exact fit, then a same-size keyed span, then a split). Without
// `may_split` the list must fit exactly, so magazine windows never shred the
// single-span donors per-object allocations live on.
void* ShadowEngine::take_va_locked(std::size_t len, bool may_split) {
  if (!cfg_.reuse_shadow_va) return nullptr;
  if (void* p = take_recycled_locked(len)) return p;
  const auto r =
      may_split ? shadow_freelist_.take(len) : shadow_freelist_.take_exact(len);
  return r ? reinterpret_cast<void*>(r->base) : nullptr;
}

// Per-shard MAP_FIXED recycle cache (DESIGN.md §16). Parked spans are kept
// sorted by base and merged with contiguous neighbours, so the slot-sized
// spans a dying magazine generation sheds — its unclaimed runs at retirement
// plus each claimed slot as its object is later freed — reassemble into the
// full window-sized run the *next* generation claims with one MAP_FIXED
// re-alias. That closed loop is what starves the shared freelist: without it
// the tuned configuration donates slot fragments faster than any consumer
// takes them and the list's high-water trim turns into the mt_server_t8
// munmap storm (ROADMAP item 1).
//
// take_recycled_locked prefers an exact fit and otherwise splits the
// smallest larger run (prefix out, remainder stays parked — the split is
// transient because released spans coalesce right back). All consumers remap
// the returned range with mmap(MAP_FIXED), which atomically replaces
// whatever dead mapping occupies it; merged runs of mixed provenance
// (revoked aliases, anonymous guard tails) are therefore interchangeable.
// park_recycled_locked returns false when the cache is off or full, in which
// case give_back_locked falls through to the shared list.
void* ShadowEngine::take_recycled_locked(std::size_t len) noexcept {
  std::size_t best = va_recycle_.size();
  for (std::size_t i = 0; i < va_recycle_.size(); ++i) {
    const std::size_t l = va_recycle_[i].length;
    if (l == len) {
      best = i;
      break;
    }
    if (l > len &&
        (best == va_recycle_.size() || l < va_recycle_[best].length)) {
      best = i;
    }
  }
  if (best == va_recycle_.size()) return nullptr;
  vm::PageRange& r = va_recycle_[best];
  void* p = reinterpret_cast<void*>(r.base);
  if (r.length == len) {
    va_recycle_.erase(va_recycle_.begin() + static_cast<std::ptrdiff_t>(best));
  } else {
    r.base += len;  // prefix out; remainder keeps its sort position
    r.length -= len;
  }
  stats_.window_recycle_hits.fetch_add(1, std::memory_order_relaxed);
  return p;
}

bool ShadowEngine::park_recycled_locked(vm::PageRange span) {
  if (!cfg_.reuse_shadow_va || cfg_.window_recycle_cap == 0) return false;
  auto it = std::lower_bound(
      va_recycle_.begin(), va_recycle_.end(), span.base,
      [](const vm::PageRange& r, std::uintptr_t b) { return r.base < b; });
  bool merged = false;
  if (it != va_recycle_.begin()) {
    auto prev = std::prev(it);
    if (prev->base + prev->length == span.base) {
      prev->length += span.length;
      // The span may bridge prev and it into one run.
      if (it != va_recycle_.end() && prev->base + prev->length == it->base) {
        prev->length += it->length;
        va_recycle_.erase(it);
      }
      merged = true;
    }
  }
  if (!merged && it != va_recycle_.end() &&
      span.base + span.length == it->base) {
    it->base = span.base;
    it->length += span.length;
    merged = true;
  }
  if (!merged) {
    if (va_recycle_.size() >= cfg_.window_recycle_cap) return false;
    va_recycle_.insert(it, span);
  }
  stats_.window_recycle_puts.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShadowEngine::drain_recycled_locked() {
  for (const vm::PageRange& span : va_recycle_) shadow_freelist_.put(span);
  va_recycle_.clear();
}

void* ShadowEngine::magazine_claim_locked(std::uintptr_t first_page,
                                          std::size_t data_span) {
  // Windows tile the arena's *file-offset* space, so a window's slab in the
  // memfd is contiguous and one mmap aliases all of it. (The canonical VA of
  // the window base follows from the arena being one contiguous mapping.)
  const std::size_t win = magazine_bytes_;
  const std::size_t off_in_window =
      arena_.offset_of(reinterpret_cast<void*>(first_page)) % win;
  if (off_in_window + data_span > win) return nullptr;  // straddles windows
  const std::uintptr_t window_base = first_page - off_in_window;
  const std::size_t slot0 = off_in_window / vm::kPageSize;
  const std::size_t nslots = data_span / vm::kPageSize;

  auto it = magazines_.find(window_base);
  if (it != magazines_.end()) {
    Magazine& m = it->second;
    bool run_free = true;
    for (std::size_t s = slot0; s < slot0 + nslots; ++s) {
      if ((m.claimed[s / 64] >> (s % 64)) & 1u) {
        run_free = false;
        break;
      }
    }
    if (run_free) {
      for (std::size_t s = slot0; s < slot0 + nslots; ++s) {
        m.claimed[s / 64] |= std::uint64_t{1} << (s % 64);
      }
      m.free_slots -= nslots;
      stats_.magazine_hits.fetch_add(1, std::memory_order_relaxed);
      const std::uintptr_t sb = m.shadow_base + off_in_window;
      if (m.free_slots == 0) {
        // Fully carved: every page of the generation is owned by some
        // object record now, so there is nothing left to track or retire.
        magazines_.erase(it);
        gov_->add_vmas(-1);
      }
      return reinterpret_cast<void*>(sb);
    }
    // Collision: this canonical page already claimed its slot in the current
    // generation (a second object on the same page needs a second alias).
    // Retire eagerly once the generation is mostly claimed — at that point
    // its remaining value is small and a collision means the allocator has
    // started *recycling* canonical pages through this window, so one remap
    // turns the whole reuse stream back into zero-syscall hits. A young,
    // sparsely-claimed generation instead falls back to the per-object path
    // (same cost as the paper's scheme) until a miss backstop: densely
    // packed sub-page objects would otherwise remap — and burn a fresh
    // window-sized VA — on every second allocation.
    constexpr std::uint32_t kRetireMissBackstop = 2;
    ++m.misses;
    const std::size_t claimed = magazine_slots_ - m.free_slots;
    if (claimed * 2 < magazine_slots_ && m.misses < kRetireMissBackstop) {
      return nullptr;
    }
    retire_magazine_locked(window_base, m);
    magazines_.erase(it);
    // fall through: map a fresh generation
  }

  // First touch of this window (or a fresh generation after retirement):
  // prefer a recycled window-sized VA.
  void* fixed = take_va_locked(win, /*may_split=*/false);
  const vm::sys::MapResult res =
      mapper_.try_alias_bulk(reinterpret_cast<void*>(window_base), win, fixed);
  if (!res.ok()) {
    // MAP_FIXED failure leaves the old mapping intact: still reusable.
    if (fixed != nullptr) give_back_locked(vm::PageRange{vm::addr(fixed), win});
    // Caller takes the per-object path, which owns failure/degradation.
    return nullptr;
  }
  stats_.magazine_maps.fetch_add(1, std::memory_order_relaxed);
  gov_->add_vmas(1);  // a live generation's window: one file-backed mapping
  if (fixed != nullptr) {
    stats_.shadow_pages_reused.fetch_add(win / vm::kPageSize,
                                         std::memory_order_relaxed);
  } else {
    stats_.shadow_pages_mapped.fetch_add(win / vm::kPageSize,
                                         std::memory_order_relaxed);
  }

  Magazine m;
  m.shadow_base = vm::addr(res.ptr);
  m.free_slots = magazine_slots_;
  for (std::size_t s = slot0; s < slot0 + nslots; ++s) {
    m.claimed[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  m.free_slots -= nslots;
  const std::uintptr_t sb = m.shadow_base + off_in_window;
  magazines_.emplace(window_base, m);
  if (magazines_.size() > kMaxMagazineWindows) {
    // Population cap: evict an arbitrary other generation, recycling its
    // unclaimed slot runs. Claimed slots are owned by live records and are
    // released with them, so eviction only forfeits future zero-syscall hits
    // on that window.
    auto victim = magazines_.begin();
    if (victim->first == window_base) ++victim;
    if (victim != magazines_.end()) {
      retire_magazine_locked(victim->first, victim->second);
      magazines_.erase(victim);
    }
  }
  return reinterpret_cast<void*>(sb);
}

// Every caller erases the generation afterwards: it leaves the VMA gauge
// here (its carved records never entered it; see install_record_locked).
void ShadowEngine::retire_magazine_locked(std::uintptr_t window_base,
                                          Magazine& m) {
  (void)window_base;
  gov_->add_vmas(-1);
  if (m.free_slots == 0) return;
  // Recycle maximal runs of never-claimed slots. Safe: no pointer into these
  // pages was ever handed out, so MAP_FIXED reuse cannot mask a dangling use.
  std::size_t s = 0;
  while (s < magazine_slots_) {
    if ((m.claimed[s / 64] >> (s % 64)) & 1u) {
      ++s;
      continue;
    }
    std::size_t e = s;
    while (e < magazine_slots_ && !((m.claimed[e / 64] >> (e % 64)) & 1u)) {
      ++e;
    }
    const vm::PageRange run{m.shadow_base + s * vm::kPageSize,
                            (e - s) * vm::kPageSize};
    give_back_locked(run);
    stats_.magazine_slots_recycled.fetch_add(e - s,
                                             std::memory_order_relaxed);
    s = e;
  }
  m.free_slots = 0;
}

void ShadowEngine::drop_magazines_locked() {
  for (auto& [base, m] : magazines_) retire_magazine_locked(base, m);
  magazines_.clear();
}

// Keyed reuse (DESIGN.md §16): a span parked on the shared list that already
// aliases these canonical pages is handed out without a remap — zero
// syscalls if it was still read-write at release, one permission upgrade if
// it was revoked. Either way the kernel replaces no VMA and zaps no PTE.
void* ShadowEngine::take_alias_locked(std::uintptr_t first_page,
                                      std::size_t data_span) {
  if (!cfg_.reuse_shadow_va) return nullptr;
  const auto a = shadow_freelist_.take_alias(
      arena_.offset_of(reinterpret_cast<void*>(first_page)), data_span);
  if (!a) return nullptr;
  void* sb = reinterpret_cast<void*>(a->range.base);
  if (!a->rw) {
    if (!vm::PhysArena::try_protect_rw(sb, a->range.length).ok()) {
      // Still a dead alias: the caller's miss path remaps it MAP_FIXED (and
      // owns failure handling), exactly as for any recycled span.
      give_back_locked(a->range);
      return nullptr;
    }
    stats_.va_keyed_upgrades.fetch_add(1, std::memory_order_relaxed);
    g_va_keyed_upgrades.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.va_keyed_hits.fetch_add(1, std::memory_order_relaxed);
  g_va_keyed_hits.fetch_add(1, std::memory_order_relaxed);
  stats_.shadow_pages_reused.fetch_add(a->range.pages(),
                                       std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kShadowMap, a->range.base,
                    a->range.length);
  return sb;
}

void* ShadowEngine::guarded_alloc_locked(std::size_t size, SiteId site) {
  // "An allocation request is passed to malloc with the size incremented by
  //  sizeof(addr_t) bytes; the extra bytes at the start of the object will be
  //  used to record an address for bookkeeping purposes." (Section 3.2)
  const std::size_t total = size + kGuardHeader;
  void* canonical = alloc_canonical_locked(total);
  if (canonical == nullptr) return nullptr;
  const std::uintptr_t canon_addr = vm::addr(canonical);
  const std::uintptr_t first_page = vm::page_down(canon_addr);
  const std::size_t data_span = vm::page_up(canon_addr + total) - first_page;
  const std::size_t guard = cfg_.trailing_guard_page ? vm::kPageSize : 0;
  const std::size_t span_len = data_span + guard;

  // Magazine fast path: carve the shadow span out of the window's current
  // generation — zero syscalls on a hit. (magazine_slots_ is zero when
  // trailing_guard_page is set, so guard == 0 on this path.)
  if (magazine_slots_ != 0) {
    if (void* sb = magazine_claim_locked(first_page, data_span)) {
      return install_record_locked(sb, span_len, guard, canon_addr, first_page,
                                   size, site, /*own_alias=*/false);
    }
  }

  if (guard == 0) {
    if (void* sb = take_alias_locked(first_page, data_span)) {
      return install_record_locked(sb, span_len, guard, canon_addr, first_page,
                                   size, site, /*own_alias=*/true);
    }
  }

  void* fixed = take_va_locked(span_len, /*may_split=*/true);

  // Guard-path kernel calls, all Result-returning: any refusal rolls the
  // allocation back, drops the governor one rung, and re-serves the request
  // through the degraded path — the caller never sees the failure.
  vm::sys::MapResult alias{};
  if (guard == 0) {
    alias = mapper_.try_alias(reinterpret_cast<void*>(first_page), data_span,
                              fixed);
  } else if (fixed == nullptr) {
    // Reserve data + guard in one anonymous PROT_NONE mapping, then place
    // the aliased data pages over its head; the tail page stays as the
    // unmapped-equivalent guard.
    const vm::sys::MapResult region = vm::sys::map(
        nullptr, span_len, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (!region.ok()) {
      alias = region;
    } else {
      alias = mapper_.try_alias(reinterpret_cast<void*>(first_page), data_span,
                                region.ptr);
      if (!alias.ok()) (void)vm::sys::unmap(region.ptr, span_len);
    }
  } else {
    // Recycled range: alias the data part in place and convert the tail page
    // (whatever old mapping occupied it) into a fresh guard.
    alias = mapper_.try_alias(reinterpret_cast<void*>(first_page), data_span,
                              fixed);
    if (alias.ok()) {
      const vm::sys::IoResult g = vm::PhysArena::try_map_guard(
          static_cast<std::byte*>(alias.ptr) + data_span, guard);
      if (!g.ok()) alias = vm::sys::MapResult{nullptr, g.err};
    }
  }
  if (!alias.ok()) {
    under_.free(canonical);
    // MAP_FIXED failure leaves the old mapping intact: the range is still
    // reusable, so it goes back rather than leaking.
    if (fixed != nullptr) {
      give_back_locked(vm::PageRange{vm::addr(fixed), span_len});
    }
    stats_.guard_failures.fetch_add(1, std::memory_order_relaxed);
    gov_->on_syscall_failure("shadow-alias", alias.err);
    return fallback_alloc_locked(size, site);
  }
  if (fixed != nullptr) {
    stats_.shadow_pages_reused.fetch_add(span_len / vm::kPageSize,
                                         std::memory_order_relaxed);
  } else {
    stats_.shadow_pages_mapped.fetch_add(span_len / vm::kPageSize,
                                         std::memory_order_relaxed);
  }

  return install_record_locked(alias.ptr, span_len, guard, canon_addr,
                               first_page, size, site, /*own_alias=*/true);
}

void ShadowEngine::free(void* p, SiteId site) {
  if (p == nullptr) return;
  obs::ScopedLatency lat(obs::Hist::kFreeNs);
  stage_free_stack();
  std::unique_lock lock(mu_);
  free_locked(lock, p, site);
}

void ShadowEngine::quarantine_locked(void* block, std::size_t bytes) {
  quarantine_.push_back(QuarantineEntry{block, bytes});
  quarantine_bytes_ += bytes;
  const std::size_t budget = gov_->quarantine_budget();
  while (quarantine_bytes_ > budget && !quarantine_.empty()) {
    const QuarantineEntry e = quarantine_.front();
    quarantine_.pop_front();
    quarantine_bytes_ -= e.bytes;
    try {
      under_.free(e.block);
    } catch (const std::logic_error&) {
      // Quarantined garbage: an invalid free absorbed in degraded mode. The
      // allocator's magic check caught it; attribution is lost, the count
      // is not.
      stats_.invalid_frees.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t ShadowEngine::drain_quarantine_locked() {
  std::size_t released = 0;
  while (!quarantine_.empty()) {
    const QuarantineEntry e = quarantine_.front();
    quarantine_.pop_front();
    released += e.bytes;
    try {
      under_.free(e.block);
    } catch (const std::logic_error&) {
      stats_.invalid_frees.fetch_add(1, std::memory_order_relaxed);
    }
  }
  quarantine_bytes_ = 0;
  return released;
}

void ShadowEngine::degraded_free_locked(void* p, SiteId site) {
  obs::record_event(obs::EventKind::kFree, vm::addr(p), 0, site);
  if (gov_->mode() == GuardMode::kUnguarded) {
    try {
      under_.free(p);
    } catch (const std::logic_error&) {
      stats_.invalid_frees.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // Delayed reuse: the block sits in FIFO quarantine so a stale pointer to it
  // dereferences stale-but-unreused memory, not a new owner's data. The size
  // comes from the allocator header; a garbage pointer yields a garbage size,
  // so clamp to keep one bad entry from flushing the whole quarantine.
  std::size_t bytes = under_.size_of(p);
  if (bytes == 0 || bytes > (std::size_t{1} << 32)) bytes = vm::kPageSize;
  stats_.quarantined_frees.fetch_add(1, std::memory_order_relaxed);
  quarantine_locked(p, bytes);
}

// The revocation syscall for one span or merged run: bury it or mprotect it,
// as the owner chose (see Revocation).
vm::sys::IoResult ShadowEngine::revoke_span_locked(std::uintptr_t base,
                                                   std::size_t len) {
  stats_.protect_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = reinterpret_cast<void*>(base);
  return buries() ? arena_.try_bury(p, len) : arena_.try_revoke(p, len);
}

// After a successful revocation: the canonical block goes back to the
// allocator, and a buried span leaves the VMA gauge.
void ShadowEngine::revoked_locked(ObjectRecord* rec) {
  if (buries()) uncount_alias_locked(rec);
  under_.free(reinterpret_cast<void*>(rec->canonical));
}

// The span stops being a file-backed alias of its own: buried, or released.
void ShadowEngine::uncount_alias_locked(ObjectRecord* rec) noexcept {
  if (!rec->alias_vma) return;
  rec->alias_vma = false;
  gov_->add_vmas(-alias_vmas());
}

// Revocation of one freed record: protect the span and return the canonical
// block, or queue both for the next batched flush. No flush/budget decisions
// here — callers follow with maybe_flush_locked().
void ShadowEngine::revoke_locked(ObjectRecord* rec) {
  if (cfg_.protect_batch > 1) {
    // Deferred protection: the canonical block is NOT returned yet, so the
    // physical memory cannot be reused before the span is protected.
    pending_protect_.push_back(rec);
    return;
  }
  const vm::sys::IoResult pr =
      revoke_span_locked(rec->shadow_base, rec->span_length);
  freed_bytes_held_ += rec->span_length;
  rec->revocation_done = true;
  if (pr.ok()) {
    stats_.revoked_spans.fetch_add(1, std::memory_order_relaxed);
    revoked_locked(rec);
  } else {
    // Revocation refused: the shadow stays readable, so the physical block
    // must NOT be recycled (a new owner's data would leak through the stale
    // alias). Park it in quarantine instead; the record stays registered, so
    // a double free of this pointer is still caught exactly.
    stats_.guard_failures.fetch_add(1, std::memory_order_relaxed);
    gov_->on_syscall_failure("protect-none", pr.err);
    quarantine_locked(reinterpret_cast<void*>(rec->canonical),
                      rec->user_size + kGuardHeader);
  }
}

void ShadowEngine::maybe_flush_locked() {
  if (cfg_.protect_batch > 1 && pending_protect_.size() >= cfg_.protect_batch) {
    flush_protections_locked();
  }
  enforce_budget_locked();
}

void ShadowEngine::free_locked(std::unique_lock<std::mutex>& lock, void* p,
                               SiteId site) {
  const std::uintptr_t user = vm::addr(p);
  if (!sampled_->empty()) {
    // Sampled-rung ledger first: it has EXACT knowledge of fast-path
    // pointers, so it must win over the best-effort degraded disposition —
    // and since ledgered (canonical) and guarded (shadow-page) addresses are
    // disjoint by construction, a hit is definitive without consulting the
    // registry at all. Probing the local sharded ledger before the global
    // table keeps the sampled rung's dominant free path off the registry's
    // reader-epoch cacheline; a miss (guarded or degraded pointer) pays one
    // hash find extra, only while the ledger is non-empty.
    SampledTable::Entry ent;
    switch (sampled_->on_free(user, site, &ent)) {
      case SampledTable::FreeResult::kMiss:
        break;
      case SampledTable::FreeResult::kFreed: {
        // First free of a fast-path object: ledger transition done; the block
        // parks in quarantine so the address cannot be rebound while the
        // freed entry could still catch a double free.
        std::size_t bytes = under_.size_of(p);
        if (bytes == 0 || bytes > (std::size_t{1} << 32)) {
          bytes = vm::kPageSize;
        }
        stats_.sampled_frees.fetch_add(1, std::memory_order_relaxed);
        obs::record_event(obs::EventKind::kFree, user, ent.size, site);
        quarantine_locked(p, bytes);
        return;
      }
      case SampledTable::FreeResult::kDoubleFree: {
        // Exact double free of an unsampled object — the rung's headline
        // guarantee. The entry carries the first free's attribution.
        stats_.double_frees.fetch_add(1, std::memory_order_relaxed);
        DanglingReport report;
        report.kind = AccessKind::kFree;
        report.fault_address = user;
        report.object_base = user;
        report.object_size = ent.size;
        report.alloc_site = ent.alloc_site;
        report.free_site = ent.free_site;
        lock.unlock();
        FaultManager::instance().raise_software(report);
        return;
      }
    }
  }
  const ObjectRecord* found = ShadowRegistry::global().lookup(user);
  if (found == nullptr && degraded_pointers_possible()) {
    // Once any engine under this governor has served a degraded allocation, a
    // registry miss is (almost surely) such a pointer coming back. Before the
    // first degraded allocation a miss is still reported as an invalid free
    // exactly as in full-guard mode — degradation never weakens a run it
    // never touched.
    degraded_free_locked(p, site);
    return;
  }
  // Objects never share a shadow page, so a page hit identifies the object;
  // still require the exact pointer, as free() of an interior pointer is an
  // error in its own right.
  if (found == nullptr || found->user_shadow != user) {
    stats_.invalid_frees.fetch_add(1, std::memory_order_relaxed);
    DanglingReport report;
    report.kind = AccessKind::kInvalidFree;
    report.fault_address = user;
    lock.unlock();  // dispatch may longjmp; never hold the lock across it
    FaultManager::instance().raise_software(report);
  }
  auto* rec = const_cast<ObjectRecord*>(found);

  // The kLive->kFreed CAS is the single admission ticket for the free path:
  // a loser — same thread, another thread on this shard, or a cross-shard
  // free_remote racing us — sees kFreed and reports a deterministic double
  // free. (The paper's formulation — the header-word read trapping on the
  // protected page — also holds here, but the record check yields a precise
  // report and stays exact while the revocation is still queued.)
  ObjectState expected = ObjectState::kLive;
  if (!rec->state.compare_exchange_strong(expected, ObjectState::kFreed,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    stats_.double_frees.fetch_add(1, std::memory_order_relaxed);
    DanglingReport report;
    report.kind = AccessKind::kFree;
    report.fault_address = user;
    report.object_base = rec->user_shadow;
    report.object_size = rec->user_size;
    report.alloc_site = rec->alloc_site;
    report.free_site = rec->free_site.load(std::memory_order_relaxed);
    // The report carries the FIRST free's stack; the second free (this call)
    // becomes the use stack at dispatch.
    copy_site_stacks(*rec, report);
    lock.unlock();
    FaultManager::instance().raise_software(report);
  }

  // Consistency check: the header word must still name the canonical address
  // (its page is readable until the revocation mprotect).
  assert(*reinterpret_cast<std::uintptr_t*>(user - kGuardHeader) ==
         rec->canonical);

  rec->free_site.store(site, std::memory_order_relaxed);
  consume_free_stage(*rec);
  stats_.frees.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kFree, user, rec->user_size, site);

  revoke_locked(rec);
  maybe_flush_locked();
}

void ShadowEngine::free_remote(void* p, SiteId site) {
  if (p == nullptr) return;
  obs::ScopedLatency lat(obs::Hist::kFreeNs);
  stage_free_stack();
  const std::uintptr_t user = vm::addr(p);
  const ObjectRecord* found = ShadowRegistry::global().lookup(user);
  // The router (ShardedHeap) only sends pointers it resolved to a record of
  // this engine, so a miss here means the pointer went stale in between —
  // report it like any invalid free. No lock is held on this path.
  if (found == nullptr || found->user_shadow != user) {
    stats_.invalid_frees.fetch_add(1, std::memory_order_relaxed);
    DanglingReport report;
    report.kind = AccessKind::kInvalidFree;
    report.fault_address = user;
    FaultManager::instance().raise_software(report);
  }
  auto* rec = const_cast<ObjectRecord*>(found);
  ObjectState expected = ObjectState::kLive;
  if (!rec->state.compare_exchange_strong(expected, ObjectState::kFreed,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    // Exact cross-thread double free: the CAS loser raises immediately, even
    // though the winner's revocation may still be queued on the owner.
    stats_.double_frees.fetch_add(1, std::memory_order_relaxed);
    DanglingReport report;
    report.kind = AccessKind::kFree;
    report.fault_address = user;
    report.object_base = rec->user_shadow;
    report.object_size = rec->user_size;
    report.alloc_site = rec->alloc_site;
    report.free_site = rec->free_site.load(std::memory_order_relaxed);
    copy_site_stacks(*rec, report);
    FaultManager::instance().raise_software(report);
  }
  rec->free_site.store(site, std::memory_order_relaxed);
  consume_free_stage(*rec);
  stats_.frees.fetch_add(1, std::memory_order_relaxed);
  stats_.remote_frees.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kFree, user, rec->user_size, site);

  // Lock-free MPSC push; the release CAS publishes free_site and the state
  // transition to the owner's acquire exchange in drain_remote_locked.
  ObjectRecord* old = remote_head_.load(std::memory_order_relaxed);
  do {
    rec->remote_next.store(old, std::memory_order_relaxed);
  } while (!remote_head_.compare_exchange_weak(old, rec,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  // Backstop: if the owner shard is idle (not allocating), the producer that
  // crosses the threshold drains on the owner's behalf, bounding how much
  // freed-but-unrevoked memory the queue can accumulate.
  if (remote_pending_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      remote_drain_threshold_) {
    drain_remote();
  }
}

std::size_t ShadowEngine::drain_remote() {
  std::lock_guard lock(mu_);
  return drain_remote_locked();
}

std::size_t ShadowEngine::drain_remote_locked() {
  ObjectRecord* node = remote_head_.exchange(nullptr,
                                             std::memory_order_acquire);
  if (node == nullptr) return 0;
  std::size_t n = 0;
  while (node != nullptr) {
    ObjectRecord* next = node->remote_next.load(std::memory_order_relaxed);
    node->remote_next.store(nullptr, std::memory_order_relaxed);
    revoke_locked(node);
    ++n;
    node = next;
  }
  remote_pending_.fetch_sub(n, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kRemoteDrain, shard_id_, n);
  maybe_flush_locked();
  return n;
}

void ShadowEngine::flush_protections() {
  std::lock_guard lock(mu_);
  drain_remote_locked();  // routed-but-undrained frees flush too
  flush_protections_locked();
  enforce_budget_locked();
}

std::size_t ShadowEngine::pending_revocations() const {
  std::lock_guard lock(mu_);
  return pending_protect_.size() +
         remote_pending_.load(std::memory_order_relaxed);
}

std::size_t ShadowEngine::quarantine_depth_bytes() const {
  std::lock_guard lock(mu_);
  return quarantine_bytes_;
}

std::size_t ShadowEngine::magazine_count() const {
  std::lock_guard lock(mu_);
  return magazines_.size();
}

void ShadowEngine::flush_protections_locked() {
  if (pending_protect_.empty()) return;
  // Address-sort and merge adjacent spans: one mprotect per contiguous run.
  // Magazine-carved spans from the same window ARE adjacent when freed
  // together, so churny phases collapse to a handful of calls.
  std::sort(pending_protect_.begin(), pending_protect_.end(),
            [](const ObjectRecord* a, const ObjectRecord* b) {
              return a->shadow_base < b->shadow_base;
            });
  const std::size_t n = pending_protect_.size();
  std::size_t i = 0;
  while (i < n) {
    std::uintptr_t run_base = pending_protect_[i]->shadow_base;
    std::size_t run_len = pending_protect_[i]->span_length;
    std::size_t j = i + 1;
    while (j < n && pending_protect_[j]->shadow_base == run_base + run_len) {
      run_len += pending_protect_[j]->span_length;  // extends the current run
      stats_.protect_calls_saved.fetch_add(1, std::memory_order_relaxed);
      ++j;
    }
    const vm::sys::IoResult r = revoke_span_locked(run_base, run_len);
    if (r.ok()) {
      if (j - i > 1) {
        stats_.revoke_coalesced_pages.fetch_add(run_len / vm::kPageSize,
                                                std::memory_order_relaxed);
      }
      stats_.revoked_spans.fetch_add(j - i, std::memory_order_relaxed);
      for (std::size_t k = i; k < j; ++k) {
        ObjectRecord* rec = pending_protect_[k];
        rec->revocation_done = true;
        revoked_locked(rec);
        freed_bytes_held_ += rec->span_length;
      }
    } else {
      // The merged call was refused; fall back to per-record protection so
      // one bad span cannot leave a whole run revocable-but-unprotected.
      gov_->on_syscall_failure("protect-batch", r.err);
      for (std::size_t k = i; k < j; ++k) {
        ObjectRecord* rec = pending_protect_[k];
        const vm::sys::IoResult r2 =
            revoke_span_locked(rec->shadow_base, rec->span_length);
        freed_bytes_held_ += rec->span_length;
        rec->revocation_done = true;
        if (r2.ok()) {
          stats_.revoked_spans.fetch_add(1, std::memory_order_relaxed);
          revoked_locked(rec);
        } else {
          stats_.guard_failures.fetch_add(1, std::memory_order_relaxed);
          quarantine_locked(reinterpret_cast<void*>(rec->canonical),
                            rec->user_size + kGuardHeader);
        }
      }
    }
    i = j;
  }
  stats_.revoke_batches.fetch_add(1, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kProtectBatch,
                    pending_protect_.front()->shadow_base,
                    pending_protect_.size());
  pending_protect_.clear();
}

void ShadowEngine::enforce_budget_locked() {
  if (cfg_.freed_va_budget == 0 || freed_bytes_held_ <= cfg_.freed_va_budget) {
    return;
  }
  // §3.4 strategy 1: recycle the oldest freed spans down to half budget.
  // Records whose revocation is still in flight (queued or on the remote
  // list) are skipped — releasing them would leave live pointers in those
  // queues.
  std::size_t target = freed_bytes_held_ - cfg_.freed_va_budget / 2;
  for (ObjectRecord* it = head_.next; it != &head_ && target > 0;) {
    ObjectRecord* next = it->next;
    if (it->revocation_done &&
        it->state.load(std::memory_order_relaxed) == ObjectState::kFreed) {
      const std::size_t len = it->span_length;
      release_record_locked(it);
      target = target > len ? target - len : 0;
    }
    it = next;
  }
  flush_released_locked();
}

std::size_t ShadowEngine::size_of(const void* p) const {
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  return rec != nullptr ? rec->user_size : 0;
}

void ShadowEngine::unlink_locked(ObjectRecord* rec) noexcept {
  rec->prev->next = rec->next;
  rec->next->prev = rec->prev;
}

// Every caller proved no pointer into the record's span remains and follows
// with flush_released_locked() to hand the batches to the shared list.
void ShadowEngine::release_record_locked(ObjectRecord* rec) {
  ShadowRegistry::global().erase(*rec);
  const vm::PageRange span{rec->shadow_base, rec->span_length};
  uncount_alias_locked(rec);
  give_back_locked(span, rec);
  if (rec->state.load(std::memory_order_relaxed) == ObjectState::kFreed &&
      rec->revocation_done) {
    freed_bytes_held_ -= rec->span_length;
  }
  stats_.va_reclaimed_pages.fetch_add(span.pages(), std::memory_order_relaxed);
  stats_.live_records.fetch_sub(1, std::memory_order_relaxed);
  stats_.guarded_bytes.fetch_sub(span.length, std::memory_order_relaxed);
  obs::record_event(obs::EventKind::kVaReclaim, span.base, span.pages());
  unlink_locked(rec);
  delete rec;
}

// Keyed spans park under one list lock. Plain spans are merged with their
// address neighbours first: a budget release frees the oldest records, which
// were mostly carved one after another out of the same recycled runs, so the
// batch reassembles into a few runs. Each run is one list range (and, buried,
// one VMA) instead of one per object, which keeps the list under its trim
// mark, and later allocations split the runs front to back, so neighbours
// stay neighbours.
void ShadowEngine::flush_released_locked() {
  if (!keyed_batch_.empty()) {
    shadow_freelist_.park(keyed_batch_);
    keyed_batch_.clear();
  }
  vm::coalesce(plain_batch_);
  for (const vm::PageRange& run : plain_batch_) shadow_freelist_.put(run);
  plain_batch_.clear();
}

void ShadowEngine::release_all() {
  std::lock_guard lock(mu_);
  // Pooldestroy contract: callers quiesced every thread that could still
  // free into this engine, so one drain empties the remote list for good.
  drain_remote_locked();
  flush_protections_locked();  // pending canonical blocks must reach under_
  drain_quarantine_locked();
  while (head_.next != &head_) {
    release_record_locked(head_.next);
  }
  flush_released_locked();
  drop_magazines_locked();
  drain_recycled_locked();
}

std::size_t ShadowEngine::reclaim_freed(std::size_t bytes) {
  std::lock_guard lock(mu_);
  drain_remote_locked();
  flush_protections_locked();
  std::size_t reclaimed = 0;
  for (ObjectRecord* it = head_.next; it != &head_ && reclaimed < bytes;) {
    ObjectRecord* next = it->next;
    if (it->revocation_done &&
        it->state.load(std::memory_order_relaxed) == ObjectState::kFreed) {
      reclaimed += it->span_length;
      release_record_locked(it);
    }
    it = next;
  }
  flush_released_locked();
  return reclaimed;
}

std::vector<ObjectRecord*> ShadowEngine::freed_records() {
  std::lock_guard lock(mu_);
  drain_remote_locked();
  flush_protections_locked();  // external consumers expect protected spans
  std::vector<ObjectRecord*> out;
  for (ObjectRecord* it = head_.next; it != &head_; it = it->next) {
    if (it->revocation_done &&
        it->state.load(std::memory_order_relaxed) == ObjectState::kFreed) {
      out.push_back(it);
    }
  }
  return out;
}

std::vector<ObjectRecord*> ShadowEngine::live_records() {
  std::lock_guard lock(mu_);
  std::vector<ObjectRecord*> out;
  for (ObjectRecord* it = head_.next; it != &head_; it = it->next) {
    if (it->state.load(std::memory_order_relaxed) == ObjectState::kLive) {
      out.push_back(it);
    }
  }
  return out;
}

void ShadowEngine::reclaim(ObjectRecord* rec) {
  std::lock_guard lock(mu_);
  assert(rec->state.load(std::memory_order_relaxed) == ObjectState::kFreed);
  assert(rec->revocation_done);
  release_record_locked(rec);
  flush_released_locked();
}

const ObjectRecord* ShadowEngine::record_of(const void* p) {
  if (p == nullptr) return nullptr;
  const ObjectRecord* rec = ShadowRegistry::global().lookup(vm::addr(p));
  if (rec == nullptr || rec->user_shadow != vm::addr(p)) return nullptr;
  return rec;
}

bool ShadowEngine::revocation_applied(const void* p) const {
  const ObjectRecord* rec = record_of(p);
  if (rec == nullptr) return false;
  // revocation_done is owner-lock-protected; taking mu_ here is only correct
  // on the owning engine (ShardedHeap routes by owner_shard before calling).
  std::lock_guard lock(mu_);
  return rec->state.load(std::memory_order_acquire) == ObjectState::kFreed &&
         rec->revocation_done;
}

GuardStats ShadowEngine::stats() const {
  // Under the engine lock every writer is quiesced, so this snapshot is a
  // fully consistent cut (see the contract in stats.h) — except the lock-free
  // remote-free producers, whose counters are per-counter accurate.
  std::lock_guard lock(mu_);
  return stats_.snapshot();
}

GuardedHeap::GuardedHeap(vm::PhysArena& arena, GuardConfig cfg)
    : source_(arena),
      heap_(source_),
      engine_(arena, heap_, shadow_va_, cfg, heap_revocation(cfg)) {
  // The shadow VA free list doubles as the arena's emergency VMA-relief
  // source: under kernel ENOMEM its held spans are coalesced and munmapped.
  arena.add_relief_source(&shadow_va_);
}

GuardedHeap::~GuardedHeap() {
  // Deregister before shadow_va_ is destroyed (members die in reverse order;
  // the dtor body runs first).
  source_.arena().remove_relief_source(&shadow_va_);
}

}  // namespace dpg::core
