// LD_PRELOAD malloc interposition — the paper's binary-only deployment mode.
//
// "If reuse of address space is not important, particularly during
//  debugging, our technique can be directly applied on the binaries and does
//  not require source code; we just need to intercept all calls to malloc
//  and free from the program." (Section 1)
//
//   LD_PRELOAD=libdpg_preload.so ./victim
//
// Every interposed allocation is guarded; a dangling read/write/free in the
// victim aborts with a dpguard report. Design notes:
//
//   - Reentrancy: the guard runtime itself allocates (records, registry
//     tables). A thread-local depth flag routes those internal allocations
//     to glibc's __libc_malloc, so there is no recursion.
//   - Foreign pointers: allocations made before interposition took effect
//     (ld.so, early libc) and any the runtime made internally are not in the
//     shadow registry; free() forwards them to __libc_free instead of
//     reporting an invalid free. (The invalid-free check is therefore
//     weakened in preload mode — a documented trade for compatibility.)
//   - memalign family: alignments beyond the allocator's natural 16 bytes
//     cannot be guaranteed on shadow pages (the in-page offset is pinned to
//     the canonical offset), so those requests fall through to glibc,
//     unguarded but correct.
//   - Exception safety: these entry points are a C boundary inside arbitrary
//     host binaries. No guard-layer exception may unwind through them (that
//     is std::terminate): every path catches, records dpg_guard_errors via
//     the DegradationGovernor, and keeps the host serving — allocation falls
//     back to glibc, a failed free leaks the block.
#include <cstddef>
#include <cstring>
#include <new>

#include "core/degrade.h"
#include "core/registry.h"
#include "core/runtime.h"
#include "obs/env.h"
#include "obs/metrics.h"

extern "C" {
void* __libc_malloc(std::size_t size);
void __libc_free(void* p);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* p, std::size_t size);
void* __libc_memalign(std::size_t alignment, std::size_t size);
}

namespace {

thread_local int t_depth = 0;

struct DepthGuard {
  DepthGuard() { t_depth++; }
  ~DepthGuard() { t_depth--; }
};

dpg::core::Runtime& runtime() {
  // Arm the observability knobs (DPG_TRACE / DPG_METRICS_*) before the first
  // guarded allocation so even the earliest events are recorded. Idempotent;
  // internal allocations route to __libc_malloc under the depth guard.
  dpg::obs::init_from_env();
  // Performance knobs (DESIGN.md §11). Defaults keep detection immediate:
  // batched revocation delays the free-side revocation, so it stays opt-in.
  // The freed-VA budget makes the heap revoke by burying (DESIGN.md §16):
  // a freed span becomes anonymous PROT_NONE and merges with its dead
  // neighbours, so the process's mappings track its live objects, not its
  // dead ones.
  // Slot magazines stay off: their windows split into one VMA per freed
  // slot, and their retired slot runs flooded the shared VA list (and its
  // trim) with fragments. The MAP_FIXED recycle cache stays off too: spans
  // parked there escape the VA list's trim.
  dpg::core::RuntimeConfig cfg{
      .guard = {.freed_va_budget = std::size_t{256} << 20}};
  cfg.guard.protect_batch = static_cast<std::size_t>(
      dpg::obs::env_long("DPG_PROTECT_BATCH", 0, 0, 1 << 20));
  cfg.shards =
      static_cast<std::size_t>(dpg::obs::env_long(
          "DPG_SHARDS", 0, 0,
          static_cast<long>(dpg::core::ShardedHeap::kMaxShards)));
  // Runtime construction allocates; the caller holds the depth guard.
  return dpg::core::Runtime::instance(cfg);
}

dpg::core::ShardedHeap& heap() { return runtime().heap(); }

// True when `p` belongs to the guard runtime: either a guarded (shadow-page)
// pointer, or a degraded allocation served straight from the canonical
// window. Neither may ever reach __libc_free.
bool is_ours(const void* p) {
  const auto* rec =
      dpg::core::ShadowRegistry::global().lookup(dpg::vm::addr(p));
  if (rec != nullptr) return true;
  return runtime().arena().contains_canonical(p);
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) {
  if (t_depth != 0) return __libc_malloc(size);
  DepthGuard guard;
  try {
    return heap().malloc(size);
  } catch (...) {
    // The guard layer failed, not the allocation: serve the request from
    // glibc (unguarded) rather than lying about memory exhaustion.
    dpg::core::note_guard_error();
    return __libc_malloc(size);
  }
}

void free(void* p) {
  if (p == nullptr) return;
  if (t_depth != 0) {
    __libc_free(p);
    return;
  }
  DepthGuard guard;
  try {
    if (is_ours(p)) {
      heap().free(p);
      return;
    }
  } catch (...) {
    // Never unwind into the host and never hand a guard-owned block to
    // glibc: record the error and leak the block — a bounded leak beats
    // std::terminate in a production server.
    dpg::core::note_guard_error();
    return;
  }
  __libc_free(p);  // pre-interposition or internal allocation
}

void* calloc(std::size_t count, std::size_t size) {
  if (t_depth != 0) return __libc_calloc(count, size);
  DepthGuard guard;
  try {
    return heap().calloc(count, size);
  } catch (...) {
    dpg::core::note_guard_error();
    return __libc_calloc(count, size);
  }
}

void* realloc(void* p, std::size_t size) {
  if (t_depth != 0) return __libc_realloc(p, size);
  DepthGuard guard;
  try {
    if (p != nullptr && !is_ours(p)) return __libc_realloc(p, size);
    return heap().realloc(p, size);
  } catch (...) {
    // `p` may be guard-owned, so no glibc fallback is safe here; the C
    // contract on failure is "old block untouched, return nullptr".
    dpg::core::note_guard_error();
    return nullptr;
  }
}

// Alignment-constrained entry points fall through (see header comment).
void* memalign(std::size_t alignment, std::size_t size) {
  return __libc_memalign(alignment, size);
}

void* aligned_alloc(std::size_t alignment, std::size_t size) {
  return __libc_memalign(alignment, size);
}

int posix_memalign(void** out, std::size_t alignment, std::size_t size) {
  void* p = __libc_memalign(alignment, size);
  if (p == nullptr) return 12;  // ENOMEM
  *out = p;
  return 0;
}

}  // extern "C"
