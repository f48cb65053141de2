// FaultManager — turns MMU traps into dangling-pointer diagnostics.
//
// "Upon deallocation, we change the permissions on the individual virtual
//  pages and rely on the memory management unit (MMU) to detect all dangling
//  pointer accesses" (Section 1). The SIGSEGV/SIGBUS handler installed here
//  resolves the fault address through the global ShadowRegistry; a hit on a
//  freed object's shadow span is a dangling use.
//
// Three dispositions:
//   - default (production): an async-signal-safe report is written to stderr
//     and the process aborts — dangling uses are treated as attacks.
//   - a registered callback (must itself be async-signal-safe) runs first.
//   - a thread-local *probe* (see catch_dangling) recovers via siglongjmp;
//     this powers in-process property tests that provoke thousands of traps.
//
// Faults that do not resolve to a freed shadow page are *chained* to whatever
// SIGSEGV/SIGBUS handler was installed before ours (a crash reporter, a
// language runtime's GC barrier), falling back to the default disposition —
// genuine crashes keep crashing, and cohabiting handlers keep working.
//
// Hardening (production posture):
//   - the handler runs on a per-thread sigaltstack (SA_ONSTACK), so a guard
//     trap taken on an exhausted thread stack still produces a report instead
//     of a silent double-fault kill;
//   - a thread-local reentrancy flag detects a fault *inside* the handler
//     (corrupt registry, faulting callback): the nested fault writes a
//     minimal message and _exits rather than recursing until the kernel
//     kills the process.
#pragma once

#include <csetjmp>
#include <csignal>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/report.h"

namespace dpg::core {

class FaultManager {
 public:
  using Callback = void (*)(const DanglingReport&);

  static FaultManager& instance();

  // Installs the SIGSEGV/SIGBUS handlers (idempotent, thread-safe) and arms
  // the calling thread's alternate signal stack. Previously-installed
  // handlers are captured as chain targets for faults that are not ours.
  void install();

  // Arms a per-thread alternate signal stack for the calling thread (RAII,
  // torn down at thread exit). install() arms the installing thread; other
  // threads that may take guard traps on deep stacks call this themselves.
  static void ensure_altstack() noexcept;

  // Test hook: re-runs handler installation regardless of the once-flag,
  // re-capturing whatever SIGSEGV/SIGBUS handlers are currently installed as
  // the new chain targets.
  void reinstall_for_testing();

  // Callback invoked (from signal context!) before aborting. nullptr resets.
  void set_callback(Callback cb) noexcept;

  // Raises a software-detected report (double free / invalid free) with the
  // same disposition as a hardware trap: probe recovery if armed, otherwise
  // callback + abort. Never returns when no probe is armed.
  [[noreturn]] void raise_software(const DanglingReport& report);

  // Total dangling uses detected (hardware + software) in this process.
  [[nodiscard]] std::uint64_t detections() const noexcept;

  // --- probe support (used by catch_dangling below) ---
  struct Probe {
    sigjmp_buf env;
    volatile sig_atomic_t armed = 0;
    DanglingReport report;
  };
  [[nodiscard]] Probe& thread_probe() noexcept;

 private:
  FaultManager() = default;
};

// Runs `body`; if a dangling use (trap or software-detected) occurs inside,
// unwinds back here and returns the report. Returns nullopt when `body`
// completes cleanly. Installs the fault handler on first use. Not reentrant.
//
// NOTE: recovery longjmps out of the faulting instruction, so `body` should
// be side-effect-tolerant up to the faulting point (fine for tests).
template <typename F>
std::optional<DanglingReport> catch_dangling(F&& body) {
  FaultManager& fm = FaultManager::instance();
  fm.install();
  FaultManager::Probe& probe = fm.thread_probe();
  if (sigsetjmp(probe.env, 1) != 0) {
    probe.armed = 0;
    return probe.report;
  }
  probe.armed = 1;
  std::forward<F>(body)();
  probe.armed = 0;
  return std::nullopt;
}

}  // namespace dpg::core
