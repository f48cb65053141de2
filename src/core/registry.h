// ShadowRegistry — async-signal-safe map from shadow page to object record.
//
// When the MMU traps a dangling access, the SIGSEGV handler must turn a raw
// fault address into a diagnostic: which object, how large, where allocated,
// where freed. Handlers cannot take locks, so the registry is an open-
// addressing hash table with atomic slots. Mutators (alloc/free paths)
// serialize on a mutex; the lookup path reads only a snapshot-published table
// pointer and atomic slot fields. A table that has been grown out of is freed
// as soon as every reader that might hold its pointer has drained, tracked by
// a two-epoch reader counter: lookups register under the current epoch parity
// before loading the table pointer, and a rehash publishes the replacement,
// flips the epoch, then spin-waits the stale parity's counter to zero. The
// drain is what makes churn-heavy lifetimes bounded — tombstone buildup from
// interleaved insert/erase forces periodic same-size compactions, and keeping
// every compacted-out table alive until process exit is a table-sized leak
// per compaction (first observed as linear RSS drift in the endurance soak).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "core/report.h"
#include "vm/page.h"

namespace dpg::core {

enum class ObjectState : std::uint32_t {
  kLive,
  kFreed,  // shadow pages PROT_NONE (or buried); any access is a dangling use
};

// One record per allocation. Owned by the guard engine that created it and
// linked into that engine's intrusive list so pool destruction can purge and
// recycle everything the pool produced.
struct ObjectRecord {
  std::uintptr_t shadow_base = 0;  // page-aligned base of the shadow span
  std::size_t span_length = 0;     // bytes covered incl. guard, page multiple
  std::size_t guard_length = 0;    // trailing guard bytes (0 or one page)
  std::uintptr_t user_shadow = 0;  // pointer handed to the program
  std::size_t user_size = 0;       // requested payload size
  std::uintptr_t canonical = 0;    // address the underlying allocator returned
  SiteId alloc_site = 0;
  // Atomic because a double free racing a cross-shard free reads it for the
  // report while the CAS winner writes it; relaxed is fine (diagnostic only).
  std::atomic<SiteId> free_site{0};
  // Site backtraces (DPG_SITE_DEPTH frames, see obs/backtrace.h). The alloc
  // stack is written before the record is published to the registry. The free
  // stack is written by the kLive->kFreed CAS winner only; free_stack_depth is
  // stored with release order after the frames so the fault handler's acquire
  // load never observes a depth covering unwritten frames.
  std::uint8_t alloc_stack_depth = 0;
  std::atomic<std::uint8_t> free_stack_depth{0};
  std::uintptr_t alloc_stack[obs::kMaxSiteFrames] = {};
  std::uintptr_t free_stack[obs::kMaxSiteFrames] = {};
  std::uint32_t owner_shard = 0;   // index of the ShadowEngine shard that
                                   // created the record (ShardedHeap routing)
  std::atomic<ObjectState> state{ObjectState::kLive};
  // True once the free's revocation resolved: the span reached PROT_NONE (or
  // the refused mprotect was absorbed by quarantining the canonical block).
  // Written and read only under the owner engine's lock. Records with
  // state==kFreed but !revocation_done are in flight — sitting in the
  // revocation queue or on the remote-free list — and must not be released
  // by budget reclamation or handed to the GC.
  bool revocation_done = false;
  // True while the span is a file-backed alias of its own (not carved from a
  // magazine window) and counted in the owner's governor VMA gauge. Cleared
  // when the span is buried or released. Owner-lock protected.
  bool alias_vma = false;

  ObjectRecord* prev = nullptr;  // intrusive owner list
  ObjectRecord* next = nullptr;

  // Cross-shard remote-free list (lock-free MPSC Treiber stack). A record is
  // pushed here at most once — the kLive->kFreed CAS in the freeing thread
  // is the unique admission ticket — and popped only by the owner shard
  // under its engine lock, so the field never races with prev/next use.
  std::atomic<ObjectRecord*> remote_next{nullptr};
};

// Copies a record's alloc/free site stacks into a report. Async-signal-safe
// (the fault handler uses it too): the free depth is acquire-loaded after the
// frames were release-published by the kLive->kFreed CAS winner, so a
// cross-thread race never yields torn frames.
inline void copy_site_stacks(const ObjectRecord& rec,
                             DanglingReport& report) noexcept {
  report.alloc_stack_depth = rec.alloc_stack_depth;
  for (std::size_t i = 0; i < report.alloc_stack_depth; ++i) {
    report.alloc_stack[i] = rec.alloc_stack[i];
  }
  report.free_stack_depth =
      rec.free_stack_depth.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < report.free_stack_depth; ++i) {
    report.free_stack[i] = rec.free_stack[i];
  }
}

class ShadowRegistry {
 public:
  explicit ShadowRegistry(std::size_t initial_slots = 1u << 14);
  ~ShadowRegistry();

  ShadowRegistry(const ShadowRegistry&) = delete;
  ShadowRegistry& operator=(const ShadowRegistry&) = delete;

  // Maps every page of rec's shadow span to &rec. The record must outlive its
  // registration.
  void insert(const ObjectRecord& rec);

  // Unmaps every page of rec's shadow span (called when the span's VA is
  // recycled at pool destruction or budget reclamation).
  void erase(const ObjectRecord& rec);

  // Async-signal-safe: resolves any address (not just page-aligned) to the
  // record whose shadow span covers it, or nullptr.
  [[nodiscard]] const ObjectRecord* lookup(std::uintptr_t addr) const noexcept;

  [[nodiscard]] std::size_t entries() const;

  // Process-wide registry used by the fault manager and all guard engines.
  static ShadowRegistry& global();

 private:
  struct Slot {
    std::atomic<std::uintptr_t> key{0};  // page base; 0 empty, 1 tombstone
    std::atomic<const ObjectRecord*> value{nullptr};
  };
  struct Table {
    std::size_t mask;         // slot count - 1 (power of two)
    std::size_t used = 0;     // live + tombstoned slots
    std::size_t live = 0;     // live slots
    Slot* slots;
  };

  static constexpr std::uintptr_t kTombstone = 1;

  static Table* make_table(std::size_t slot_count);
  void grow_locked(std::size_t min_live);
  static void put(Table& t, std::uintptr_t page, const ObjectRecord* rec);

  // Reader registration counters, striped so concurrent lookups touch
  // (mostly) private cachelines, indexed by epoch parity within each stripe.
  // All accesses are seq_cst: lookup's registration must be totally ordered
  // against the rehash's epoch flip, or the drain loop could miss a reader
  // that already holds the dying table's pointer (see lookup()/grow_locked()).
  static constexpr std::size_t kReaderStripes = 16;
  struct alignas(64) ReaderStripe {
    std::atomic<std::uint64_t> count[2] = {};
  };

  mutable std::mutex mu_;
  std::atomic<Table*> table_;
  mutable std::atomic<std::uint64_t> epoch_{0};
  mutable ReaderStripe readers_[kReaderStripes];
};

}  // namespace dpg::core
