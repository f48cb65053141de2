// sys — the single choke point between dpguard and the kernel's memory
// syscalls (mmap/munmap/mprotect/mremap/ftruncate/memfd_create).
//
// The paper targets *production servers*, so a refused syscall must be a
// recoverable event, not a crash: every wrapper here retries EINTR, returns
// an errno-preserving Result instead of throwing across the C boundary, and
// bumps the process-wide attempt counters (vm_stats.h) plus the obs latency
// histograms. Callers decide policy — the guard layer consults the
// DegradationGovernor (core/degrade.h) on failure.
//
// Deterministic fault injection
// -----------------------------
// Every error path above this layer can be driven on purpose, either from
// the environment or programmatically:
//
//   DPG_FAULT_INJECT=mprotect:nth=3
//   DPG_FAULT_INJECT=mmap:errno=ENOMEM:prob=0.01:seed=42
//   DPG_FAULT_INJECT=mmap:errno=ENOMEM:after=40,ftruncate:errno=EINTR:nth=1
//
// A plan is a comma-separated list of clauses, one per syscall. Each clause
// is `name[:opt[=val]]...` with options:
//   nth=N      fail exactly the Nth attempt of that syscall (1-based)
//   after=N    fail every attempt once more than N have happened (N=0: all)
//   every=N    fail every Nth attempt
//   prob=P     fail each attempt with probability P (deterministic PRNG)
//   seed=S     PRNG seed for prob (default 1; same seed => same run)
//   errno=E    errno to inject (ENOMEM, EINTR, EAGAIN, EACCES, EMFILE,
//              ENFILE, EEXIST, EINVAL, EIO, ENOSPC, or a number; default
//              ENOMEM)
//   count=N    stop after injecting N failures from this clause
//
// Injected EINTR exercises the retry loops like the real thing: the wrapper
// retries (bounded) and the attempt counter advances, so a transient plan
// (nth/every/count) eventually lets the call through. Injected failures are
// counted per syscall and exported via dpg_obs (dpg_fault_injected_*).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace dpg::vm::sys {

enum class Call : unsigned {
  kMmap = 0,
  kMunmap,
  kMprotect,
  kMremap,
  kFtruncate,
  kMemfd,
  // IO calls issued by the crash-dump writer (obs/dump.cc). There are no
  // wrappers here — the writer consults check_fault() through the io-fault
  // hook this layer installs — but the plan grammar, counters, and
  // determinism guarantees are identical.
  kOpenAt,
  kWrite,
  kCount,
};

[[nodiscard]] const char* call_name(Call c) noexcept;

// Result of a pointer-returning syscall. `err == 0` iff the call succeeded;
// on failure `ptr` is nullptr and `err` holds the errno.
struct MapResult {
  void* ptr = nullptr;
  int err = 0;
  [[nodiscard]] bool ok() const noexcept { return err == 0; }
};

// Result of an int-returning syscall (0 on success).
struct IoResult {
  int err = 0;
  [[nodiscard]] bool ok() const noexcept { return err == 0; }
};

struct FdResult {
  int fd = -1;
  int err = 0;
  [[nodiscard]] bool ok() const noexcept { return err == 0; }
};

// --- wrappers (EINTR-retrying, Result-returning, counted) -------------------

[[nodiscard]] MapResult map(void* hint, std::size_t len, int prot, int flags,
                            int fd, off_t offset) noexcept;

// mremap(old, 0, len, MREMAP_MAYMOVE): duplicate a MAP_SHARED mapping.
[[nodiscard]] MapResult remap_dup(void* old_addr, std::size_t len) noexcept;

IoResult unmap(void* p, std::size_t len) noexcept;
IoResult protect(void* p, std::size_t len, int prot) noexcept;
IoResult truncate_fd(int fd, off_t len) noexcept;
[[nodiscard]] FdResult memfd(const char* name) noexcept;

// --- fault-injection plan ---------------------------------------------------

// Replaces the active plan. nullptr or "" clears it. Returns false (and
// leaves the previous plan active) when the spec does not parse.
bool set_fault_plan(const char* spec) noexcept;
void clear_fault_plan() noexcept;

// Parses DPG_FAULT_INJECT once (idempotent). Called lazily by every wrapper,
// so the env knob works with no init call.
void init_fault_plan_from_env() noexcept;

// True when any clause is armed (after env init).
[[nodiscard]] bool fault_plan_active() noexcept;

// Consults the active plan for one attempt of `c`: returns the errno to
// inject, or 0 to let the call proceed. This is the same decision procedure
// the wrappers use, exposed for callers that issue their own syscalls (the
// crash-dump writer's openat/write path). Parses the env plan on first use.
[[nodiscard]] int check_fault(Call c) noexcept;

// Failures injected so far, per syscall / total, and EINTR retries absorbed
// (injected or real).
[[nodiscard]] std::uint64_t injected_failures(Call c) noexcept;
[[nodiscard]] std::uint64_t injected_failures_total() noexcept;
[[nodiscard]] std::uint64_t eintr_retries() noexcept;

}  // namespace dpg::vm::sys
