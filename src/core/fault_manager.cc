#include "core/fault_manager.h"

#include <setjmp.h>
#include <signal.h>
#include <string.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "core/registry.h"
#include "obs/backtrace.h"
#include "obs/dump.h"
#include "obs/fmt.h"
#include "obs/metrics.h"

namespace dpg::core {

namespace {

using obs::fmt::put_dec;
using obs::fmt::put_hex;
using obs::fmt::put_str;

std::atomic<FaultManager::Callback> g_callback{nullptr};
std::atomic<std::uint64_t> g_detections{0};
thread_local FaultManager::Probe t_probe;

// Set while the fault path runs on this thread. A second fault with the flag
// up means the handler itself faulted — recursing would just re-enter until
// the kernel gives up, so bail with a minimal async-safe note instead.
thread_local volatile sig_atomic_t t_in_fault = 0;

// Walker probe: while the use-site backtrace walk runs inside on_fault, the
// frame-pointer chain may lead anywhere (the faulting thread's registers are
// not presumed sane). A nested fault with t_walk_active up siglongjmps back
// into capture_use_stack instead of recursing; the walker's `progress`
// counter guarantees the frames gathered so far stay valid.
thread_local volatile sig_atomic_t t_walk_active = 0;
thread_local sigjmp_buf t_walk_env;

#if defined(__SANITIZE_THREAD__)
#define DPG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPG_TSAN 1
#endif
#endif
#ifndef DPG_TSAN
#define DPG_TSAN 0
#endif

// Use-site backtrace from the faulting signal context: the interrupted PC,
// then the frame-pointer chain from the interrupted RBP. The upper stack
// bound is a generous span above RSP — out-of-range frame pointers are
// stopped by the walker probe, not by exact bounds (the faulting thread's
// pthread bounds may be uncached and resolving them here is not
// async-signal-safe).
std::size_t capture_use_stack(const void* uctx, std::uintptr_t* out,
                              std::size_t max) noexcept {
#if defined(__x86_64__)
  const std::size_t depth = obs::site_depth();
  if (depth == 0 || uctx == nullptr || max == 0) return 0;
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  // volatile: these live across sigsetjmp (-Wclobbered otherwise).
  volatile auto fp =
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  volatile auto sp =
      static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  constexpr std::uintptr_t kStackSpan = std::uintptr_t{64} << 20;
  volatile std::size_t progress = 0;
  out[progress] = pc;
  progress = 1;
#if DPG_TSAN
  // TSan's sigsetjmp interceptor allocates (signal-unsafe here) and its
  // siglongjmp aborts on a buf set up on the sigaltstack ("can't find
  // longjmp buf"), so the probe-protected walk cannot run under it. The
  // interrupted PC alone still names the use site; the alloc/free stacks
  // are unaffected (their walks run outside any signal).
  (void)fp;
  (void)sp;
#else
  if (sigsetjmp(t_walk_env, 1) == 0) {
    t_walk_active = 1;
    obs::walk_frame_chain(fp, sp, sp + kStackSpan, out, max, &progress);
  }
  t_walk_active = 0;
#endif
  return progress;
#else
  (void)uctx;
  (void)out;
  (void)max;
  return 0;
#endif
}


[[noreturn]] void nested_fault_bail() {
  static const char msg[] =
      "dpguard: fault inside the fault handler; minimal report, exiting\n";
  [[maybe_unused]] ssize_t rc = write(STDERR_FILENO, msg, sizeof msg - 1);
  _exit(134);  // 128 + SIGABRT: reads like the abort the full path would take
}

// write_report needs ~12 KiB of stack frames (report + metrics buffers);
// MINSIGSTKSZ would not cover them, and the whole point is surviving traps
// taken at the edge of an exhausted thread stack.
constexpr std::size_t kAltStackBytes = 256 * 1024;

// Per-thread alternate signal stack, armed on construction and torn down at
// thread exit. Deliberately raw mmap, not the vm/sys shim: an injected fault
// plan must never be able to disarm the crash path itself.
class AltStack {
 public:
  AltStack() noexcept {
    void* p = mmap(nullptr, kAltStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;  // SA_ONSTACK with no stack = plain delivery
    stack_t ss{};
    ss.ss_sp = p;
    ss.ss_size = kAltStackBytes;
    if (sigaltstack(&ss, &prev_) == 0) {
      base_ = p;
    } else {
      munmap(p, kAltStackBytes);
    }
  }

  ~AltStack() {
    if (base_ == nullptr) return;
    if ((prev_.ss_flags & SS_DISABLE) != 0 || prev_.ss_sp == nullptr) {
      stack_t off{};
      off.ss_flags = SS_DISABLE;
      sigaltstack(&off, nullptr);
    } else {
      sigaltstack(&prev_, nullptr);
    }
    munmap(base_, kAltStackBytes);
  }

  AltStack(const AltStack&) = delete;
  AltStack& operator=(const AltStack&) = delete;

 private:
  void* base_ = nullptr;
  stack_t prev_{};
};

// Chain targets: whatever SIGSEGV/SIGBUS dispositions were installed before
// ours. Written once under install()'s once-flag (or reinstall_for_testing).
struct sigaction g_prev_segv{};
struct sigaction g_prev_bus{};

std::size_t put_stack(char* buf, std::size_t cap, std::size_t at,
                      const char* label, const std::uintptr_t* frames,
                      std::size_t depth) {
  if (depth == 0) return at;
  at = put_str(buf, cap, at, label);
  for (std::size_t i = 0; i < depth; ++i) {
    at = put_str(buf, cap, at, i == 0 ? "" : " ");
    at = put_hex(buf, cap, at, frames[i]);
  }
  return put_str(buf, cap, at, "\n");
}

void write_report(const DanglingReport& r, const char* dump_name) {
  char buf[4096];
  std::size_t at = 0;
  at = put_str(buf, sizeof buf, at, "\n=== dpguard: dangling pointer ");
  at = put_str(buf, sizeof buf, at, to_string(r.kind));
  at = put_str(buf, sizeof buf, at, " detected ===\n  pointer:    ");
  at = put_hex(buf, sizeof buf, at, r.fault_address);
  at = put_str(buf, sizeof buf, at, "\n  object:     [");
  at = put_hex(buf, sizeof buf, at, r.object_base);
  at = put_str(buf, sizeof buf, at, ", +");
  at = put_dec(buf, sizeof buf, at, r.object_size);
  at = put_str(buf, sizeof buf, at, ")\n  alloc site: ");
  at = put_dec(buf, sizeof buf, at, r.alloc_site);
  at = put_str(buf, sizeof buf, at, "\n  free site:  ");
  at = put_dec(buf, sizeof buf, at, r.free_site);
  at = put_str(buf, sizeof buf, at, "\n");
  at = put_stack(buf, sizeof buf, at, "  use stack:   ", r.use_stack,
                 r.use_stack_depth);
  at = put_stack(buf, sizeof buf, at, "  alloc stack: ", r.alloc_stack,
                 r.alloc_stack_depth);
  at = put_stack(buf, sizeof buf, at, "  free stack:  ", r.free_stack,
                 r.free_stack_depth);
  if (dump_name != nullptr && dump_name[0] != '\0') {
    at = put_str(buf, sizeof buf, at, "  crash dump:  ");
    at = put_str(buf, sizeof buf, at, dump_name);
    at = put_str(buf, sizeof buf, at, " (in DPG_REPORT_DIR)\n");
  }
  if (r.trace_count != 0) {
    at = put_str(buf, sizeof buf, at, "  last ");
    at = put_dec(buf, sizeof buf, at, r.trace_count);
    at = put_str(buf, sizeof buf, at, " events (oldest first):\n");
    for (std::size_t i = 0; i < r.trace_count; ++i) {
      const obs::TraceEvent& e = r.recent_trace[i];
      at = put_str(buf, sizeof buf, at, "    [");
      at = put_dec(buf, sizeof buf, at, e.ns);
      at = put_str(buf, sizeof buf, at, "ns] ");
      at = put_str(buf, sizeof buf, at,
                   to_string(static_cast<obs::EventKind>(e.kind)));
      at = put_str(buf, sizeof buf, at, " addr=");
      at = put_hex(buf, sizeof buf, at, e.addr);
      at = put_str(buf, sizeof buf, at, " arg=");
      at = put_dec(buf, sizeof buf, at, e.arg);
      at = put_str(buf, sizeof buf, at, " site=");
      at = put_dec(buf, sizeof buf, at, e.site);
      at = put_str(buf, sizeof buf, at, " tid=");
      at = put_dec(buf, sizeof buf, at, e.tid);
      at = put_str(buf, sizeof buf, at, "\n");
    }
  }
  // Best-effort: a short write here is acceptable.
  [[maybe_unused]] ssize_t rc = write(STDERR_FILENO, buf, at);
  // Stats snapshot alongside the crash: registered counters + histograms as
  // one JSON line (async-signal-safe), so the report is self-diagnosing.
  char metrics[8192];
  std::size_t mlen = obs::render_json(metrics, sizeof metrics - 1, "fault");
  if (mlen != 0) {
    metrics[mlen++] = '\n';
    rc = write(STDERR_FILENO, metrics, mlen);
  }
}

// Mirrors a DanglingReport into the obs-layer POD the dump writer persists
// (obs cannot see core types; the numeric kind values match AccessKind).
void fill_crash_report(obs::dump::CrashReport& cr, const DanglingReport& r) {
  cr = obs::dump::CrashReport{};
  cr.kind = static_cast<std::uint32_t>(r.kind);
  cr.alloc_site = r.alloc_site;
  cr.free_site = r.free_site;
  cr.fault_address = r.fault_address;
  cr.object_base = r.object_base;
  cr.object_size = r.object_size;
  cr.alloc_stack_depth = static_cast<std::uint32_t>(r.alloc_stack_depth);
  cr.free_stack_depth = static_cast<std::uint32_t>(r.free_stack_depth);
  cr.use_stack_depth = static_cast<std::uint32_t>(r.use_stack_depth);
  for (std::size_t i = 0; i < r.alloc_stack_depth; ++i) {
    cr.alloc_stack[i] = r.alloc_stack[i];
  }
  for (std::size_t i = 0; i < r.free_stack_depth; ++i) {
    cr.free_stack[i] = r.free_stack[i];
  }
  for (std::size_t i = 0; i < r.use_stack_depth; ++i) {
    cr.use_stack[i] = r.use_stack[i];
  }
  static_assert(sizeof cr.recent_trace == sizeof r.recent_trace);
  cr.trace_count = static_cast<std::uint32_t>(r.trace_count);
  memcpy(cr.recent_trace, r.recent_trace, sizeof cr.recent_trace);
}

[[noreturn]] void dispatch(const DanglingReport& incoming) {
  if (t_in_fault != 0) nested_fault_bail();
  t_in_fault = 1;
  g_detections.fetch_add(1, std::memory_order_relaxed);
  // Enrich with the faulting thread's flight-recorder tail. The fault event
  // itself is recorded first so it is always the newest entry.
  obs::record_event(obs::EventKind::kFault, incoming.fault_address,
                    static_cast<std::uint64_t>(incoming.kind),
                    incoming.free_site);
  DanglingReport report = incoming;
  report.trace_count =
      obs::capture_recent(report.recent_trace, DanglingReport::kTraceDepth);
  if (t_probe.armed != 0) {
    t_probe.report = report;
    t_in_fault = 0;  // probe recovery resumes normal execution
    siglongjmp(t_probe.env, 1);
  }
  // Software-raised reports (double free, invalid free, stale realloc) reach
  // here in normal context with no signal frame; capture the use stack from
  // the current call chain instead.
  if (report.use_stack_depth == 0) {
    report.use_stack_depth = obs::capture_site_stack(
        report.use_stack, DanglingReport::kUseStackDepth);
  }
  if (FaultManager::Callback cb = g_callback.load(std::memory_order_acquire)) {
    cb(report);
  }
  // Persist the postmortem dump before the human-readable report: the dump is
  // the artifact the fleet keeps, stderr is best-effort. `force` because this
  // path terminates the process — never yield to a concurrent snapshot.
  char dump_name[128] = {0};
  if (obs::dump::enabled()) {
    obs::dump::CrashReport cr;
    fill_crash_report(cr, report);
    obs::dump::write_crash_dump("fault", &cr, dump_name, sizeof dump_name,
                                /*force=*/true);
  }
  write_report(report, dump_name);
  abort();
}

AccessKind classify(const void* uctx) noexcept {
#if defined(__x86_64__)
  // Page-fault error code: bit 1 set => the faulting access was a write.
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  const auto err = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_ERR]);
  return (err & 0x2) != 0 ? AccessKind::kWrite : AccessKind::kRead;
#else
  (void)uctx;
  return AccessKind::kUnknown;
#endif
}

void reraise_default(int signo) {
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  sigaction(signo, &dfl, nullptr);
  // Returning re-executes the faulting instruction under SIG_DFL.
}

// A fault that is not ours goes to whoever owned the signal before install():
// SA_SIGINFO handlers get the full context, classic handlers the signo. An
// inherited SIG_IGN is honored by returning (the access re-faults, but that
// is exactly the prior owner's chosen semantics for a present handler);
// SIG_DFL falls through to reraise_default.
void chain_previous(int signo, siginfo_t* info, void* uctx) {
  const struct sigaction& prev = signo == SIGBUS ? g_prev_bus : g_prev_segv;
  if ((prev.sa_flags & SA_SIGINFO) != 0) {
    if (prev.sa_sigaction != nullptr) {
      prev.sa_sigaction(signo, info, uctx);
      return;
    }
  } else if (prev.sa_handler != SIG_DFL) {
    if (prev.sa_handler != SIG_IGN) prev.sa_handler(signo);
    return;
  }
  reraise_default(signo);
}

void on_fault(int signo, siginfo_t* info, void* uctx) {
  // A fault raised by the use-stack walker itself (garbage frame pointer):
  // abandon the walk, keep the frames already gathered. Checked before
  // anything else — the walker runs with t_in_fault still down.
  if (t_walk_active != 0) {
    t_walk_active = 0;
    siglongjmp(t_walk_env, 1);
  }
  if (t_in_fault != 0) nested_fault_bail();
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const ObjectRecord* rec = ShadowRegistry::global().lookup(addr);
  if (rec == nullptr) {
    chain_previous(signo, info, uctx);
    return;
  }
  const ObjectState state = rec->state.load(std::memory_order_acquire);
  const bool in_guard =
      rec->guard_length != 0 &&
      addr >= rec->shadow_base + rec->span_length - rec->guard_length;
  if (state != ObjectState::kFreed && !in_guard) {
    // A fault inside a live object's data pages is not ours to explain.
    chain_previous(signo, info, uctx);
    return;
  }
  DanglingReport report;
  // A fault in a *live* object's trailing guard page is a spatial error:
  // the access ran off the end of the object (the §6-extension guard mode).
  report.kind = state == ObjectState::kFreed ? classify(uctx)
                                             : AccessKind::kOverflow;
  report.fault_address = addr;
  report.object_base = rec->user_shadow;
  report.object_size = rec->user_size;
  report.alloc_site = rec->alloc_site;
  report.free_site = rec->free_site;
  copy_site_stacks(*rec, report);
  report.use_stack_depth = capture_use_stack(
      uctx, report.use_stack, DanglingReport::kUseStackDepth);
  dispatch(report);
}

}  // namespace

namespace {

void install_handlers() {
  struct sigaction sa{};
  sa.sa_sigaction = on_fault;
  // SA_NODEFER keeps SIGSEGV deliverable inside the handler so a nested
  // fault reaches the reentrancy bail-out instead of a silent kernel kill;
  // SA_ONSTACK moves delivery to the per-thread sigaltstack.
  sa.sa_flags = SA_SIGINFO | SA_NODEFER | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGSEGV, &sa, &g_prev_segv);
  sigaction(SIGBUS, &sa, &g_prev_bus);
  // Installing over ourselves (reinstall after a fork, double init) must not
  // make the chain recursive.
  if ((g_prev_segv.sa_flags & SA_SIGINFO) != 0 &&
      g_prev_segv.sa_sigaction == on_fault) {
    g_prev_segv = {};
  }
  if ((g_prev_bus.sa_flags & SA_SIGINFO) != 0 &&
      g_prev_bus.sa_sigaction == on_fault) {
    g_prev_bus = {};
  }
}

}  // namespace

FaultManager& FaultManager::instance() {
  static FaultManager fm;
  return fm;
}

void FaultManager::ensure_altstack() noexcept {
  thread_local AltStack alt;
  (void)alt;
}

void FaultManager::install() {
  ensure_altstack();
  static std::once_flag once;
  std::call_once(once, [] {
    install_handlers();
    obs::register_counter("dpg_detections", &g_detections);
  });
}

void FaultManager::reinstall_for_testing() {
  ensure_altstack();
  install_handlers();
}

void FaultManager::set_callback(Callback cb) noexcept {
  g_callback.store(cb, std::memory_order_release);
}

void FaultManager::raise_software(const DanglingReport& report) {
  dispatch(report);
}

std::uint64_t FaultManager::detections() const noexcept {
  return g_detections.load(std::memory_order_relaxed);
}

FaultManager::Probe& FaultManager::thread_probe() noexcept { return t_probe; }

}  // namespace dpg::core
