// DegradationGovernor — resource-exhaustion policy for the guard runtime.
//
// The paper's design spends one VMA per live object plus a PROT_NONE VMA per
// freed-but-still-guarded object, so a busy server walks straight into
// vm.max_map_count (we hit it in benches) and any mmap/mprotect refusal used
// to surface as an exception through malloc. Production-grade UAF defenses
// treat exhaustion as a first-class state with a safe fallback; this
// governor is that state machine. The host application keeps serving traffic
// no matter what the kernel refuses — detection degrades, never the server.
//
// The ladder (one-way rungs downward, hysteresis upward):
//
//   kFullGuard       every allocation gets a shadow alias; frees revoke via
//                    PROT_NONE. Full detection (the paper's mode).
//   kSampled         guard 1-in-N allocations (GWP-ASan style per-thread
//                    decrementing counter). Unsampled allocations take a
//                    fast unguarded path that still records alloc/free, so
//                    double frees stay exactly detected; dangling *uses* of
//                    unsampled objects go undetected. Under continued
//                    pressure the governor widens N (doubling up to
//                    sample_rate_max) before demoting further; hysteresis
//                    relief re-tightens N back toward the base rate before
//                    promoting to full guarding.
//   kQuarantineOnly  no new shadow aliases (no mmap, no new VMAs); frees of
//                    degraded objects enter a delayed-reuse quarantine so
//                    stale pointers dereference stale-but-unreused memory
//                    instead of a neighbour's data. Already-guarded objects
//                    keep their guarantees.
//   kUnguarded       straight passthrough to the underlying allocator —
//                    last resort when even bookkeeping-free operation is all
//                    the kernel will give us.
//
// Invariant (DESIGN.md §10): degradation may *suspend* detection, never
// falsify it — no mode ever produces a false positive, and objects guarded
// before a downgrade still trap correctly after it.
//
// Triggers down: a shim syscall failure on the guard path, arena growth
// failure (after the relief retry), or the live-VMA estimate crossing the
// high-water fraction of the budget (parsed from /proc/sys/vm/max_map_count,
// overridable via DPG_VMA_BUDGET). Recovery up: after `recover_after`
// consecutive clean allocations with the VMA estimate below the low-water
// mark, one rung is retried; each relapse doubles the required streak
// (bounded exponential backoff), so a persistently refusing kernel costs one
// probe per epoch, not a flap per request.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace dpg::core {

// Rungs are contiguous integers: the governor moves one rung at a time via
// int(m) +/- 1, and the dump/report layers print the numeric value.
enum class GuardMode : int {
  kFullGuard = 0,
  kSampled = 1,
  kQuarantineOnly = 2,
  kUnguarded = 3,
};

// One degradation-ladder transition, kept in a bounded ring for postmortem
// dumps (the kLadder section of a .dpgcrash file — see obs/dump.h). Field
// layout mirrors obs::dump::LadderEntry so the dump section is a straight
// copy. Sample-rate adjustments on the kSampled rung record here too, with
// from_mode == to_mode == kSampled and reason "sample-widen"/"sample-
// tighten" — they are policy movement worth postmortem context even though
// the rung itself does not change.
struct LadderRecord {
  std::uint64_t monotonic_ns = 0;
  std::uint32_t from_mode = 0;
  std::uint32_t to_mode = 0;
  std::uint32_t recovery = 0;  // 1 = promotion back up the ladder
  char reason[20] = {};
};

[[nodiscard]] constexpr const char* to_string(GuardMode m) noexcept {
  switch (m) {
    case GuardMode::kFullGuard: return "full-guard";
    case GuardMode::kSampled: return "sampled";
    case GuardMode::kQuarantineOnly: return "quarantine-only";
    case GuardMode::kUnguarded: return "unguarded";
  }
  return "?";
}

struct GovernorConfig {
  // Live-VMA budget. 0 = read /proc/sys/vm/max_map_count at construction
  // (DPG_VMA_BUDGET overrides for the process-wide governor); if neither is
  // available, a conservative 65530 (the kernel default) is assumed.
  std::size_t vma_budget = 0;
  double high_water = 0.85;  // degrade when estimate/budget crosses this
  double low_water = 0.50;   // recovery requires estimate below this
  // Clean allocations required before retrying one rung up. 0 disables
  // recovery (sticky degradation).
  std::uint64_t recover_after = 4096;
  // Delayed-reuse quarantine budget for degraded frees (bytes).
  std::size_t quarantine_bytes = std::size_t{64} << 20;
  // Base 1-in-N guard rate on the kSampled rung (DPG_SAMPLE_RATE for the
  // process-wide governor). Clamped to >= 1; N == 1 guards everything.
  std::size_t sample_rate = 64;
  // Ceiling for adaptive widening: pressure doubles N up to this before the
  // ladder demotes past the sampled rung.
  std::size_t sample_rate_max = 8192;
};

// Live counters, exported by the process-wide instance as dpg_degrade_* /
// dpg_guard_errors. All relaxed: diagnostics, not synchronization.
struct GovernorCounters {
  std::atomic<std::uint64_t> transitions{0};      // demotions + promotions
  std::atomic<std::uint64_t> mode{0};             // current rung (gauge)
  std::atomic<std::uint64_t> syscall_failures{0};
  std::atomic<std::uint64_t> arena_failures{0};
  std::atomic<std::uint64_t> recoveries{0};       // promotions only
  std::atomic<std::uint64_t> vma_estimate{0};     // live guard VMAs (gauge)
  std::atomic<std::uint64_t> degraded_allocs{0};  // served without a guard
  std::atomic<std::uint64_t> guard_errors{0};     // C-boundary catches
  std::atomic<std::uint64_t> sample_rate_effective{0};  // current N (gauge)
  std::atomic<std::uint64_t> sample_widens{0};    // N doublings under pressure
  std::atomic<std::uint64_t> sample_tightens{0};  // N halvings on relief
};

class DegradationGovernor {
 public:
  explicit DegradationGovernor(GovernorConfig cfg = {});

  DegradationGovernor(const DegradationGovernor&) = delete;
  DegradationGovernor& operator=(const DegradationGovernor&) = delete;

  // Process-wide instance (env-configured, counters registered with dpg_obs).
  // Engines with no explicit governor share this one.
  static DegradationGovernor& process();

  [[nodiscard]] GuardMode mode() const noexcept {
    return static_cast<GuardMode>(mode_.load(std::memory_order_relaxed));
  }

  // Consulted once per allocation: applies the VMA-pressure check, advances
  // the recovery streak, and returns the mode this allocation must use.
  GuardMode on_alloc() noexcept;

  // A guard-path syscall was refused (post-relief): widen N when on the
  // sampled rung, otherwise drop one rung.
  void on_syscall_failure(const char* what, int err) noexcept;

  // Arena growth failed even after relief: physical exhaustion. Drops to
  // kUnguarded only if quarantined memory cannot be returned (the engine
  // drains its quarantine first and retries; this is the last-resort note).
  void on_arena_exhausted() noexcept;

  // Guard-VMA accounting from the engines (coarse: one per fresh shadow
  // span / trailing-guard region, minus one per munmap).
  void add_vmas(long delta) noexcept;

  // Per-allocation sampling decision for the kSampled rung: a per-thread
  // decrementing counter fires 1-in-N; the first allocation a thread makes
  // after arming is always guarded (GWP-ASan style). Only meaningful while
  // mode() is kSampled.
  [[nodiscard]] bool sample_this_alloc() noexcept;

  // Effective 1-in-N the sampled rung currently guards at (the base rate
  // until pressure widens it).
  [[nodiscard]] std::size_t sample_rate() const noexcept {
    return static_cast<std::size_t>(
        sample_n_.load(std::memory_order_relaxed));
  }

  // Accrued wall-clock on rung `r`, including the in-progress stay when `r`
  // is the current rung. Lock-free; diagnostics-grade precision.
  [[nodiscard]] std::uint64_t residency_ns(GuardMode r) const noexcept;

  [[nodiscard]] std::size_t vma_budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t quarantine_budget() const noexcept {
    return cfg_.quarantine_bytes;
  }
  [[nodiscard]] const GovernorCounters& counters() const noexcept {
    return ctr_;
  }

  // Transition-history ring capacity (matches the dump section bound).
  static constexpr std::size_t kLadderHistory = 32;

  // Copies the most recent transitions (oldest first) into out; returns the
  // count. Async-signal-safe: the head is acquire-loaded, so every copied
  // entry was fully release-published. A transition racing the copy can
  // overwrite the oldest entry mid-read — tolerable for a diagnostic ring,
  // and impossible on the terminal fault path (the process is aborting).
  std::size_t history(LadderRecord* out, std::size_t max) const noexcept;

  // Consistent snapshot for dump sections: retries until the copied ring and
  // the rung gauge agree (the newest entry's to_mode matches the mode it
  // returns), so a SIGUSR2 dump taken mid-demotion never reports a rung that
  // disagrees with its own ladder-history section. Async-signal-safe; after
  // bounded retries (a transition suspended under this very thread) it
  // trusts the published ring over the racing gauge.
  std::size_t history_consistent(LadderRecord* out, std::size_t max,
                                 std::uint32_t* mode_out) const noexcept;

  // Test/bench hook: pin the ladder to a rung (counts as a transition when
  // the rung actually changes).
  void force_mode(GuardMode m) noexcept;

  // Renders this governor's state as a kLadder dump section (LadderHeader +
  // LadderEntry[]) into buf; returns bytes written, 0 if cap is too small.
  // Async-signal-safe (history_consistent + plain copies). Shared by the
  // process governor's dump hook and harnesses that publish a private
  // governor (src/soak).
  static std::size_t render_ladder_section(DegradationGovernor* self,
                                           char* buf,
                                           std::size_t cap) noexcept;

  // Bumps the guard-error counter (C-boundary catches; see note_guard_error).
  void count_guard_error() noexcept {
    ctr_.guard_errors.fetch_add(1, std::memory_order_relaxed);
  }
  // Bumps the process-wide degraded-allocation gauge (engines report in).
  void count_degraded_alloc() noexcept {
    ctr_.degraded_allocs.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  // Pressure on the sampled rung acts once per this many allocations, so a
  // burst widens N in measured steps instead of slamming it to the ceiling.
  static constexpr std::uint64_t kPressureInterval = 64;
  static constexpr std::size_t kSampleSlots = 64;
  struct alignas(64) SampleSlot {
    std::atomic<std::uint64_t> countdown{0};
  };

  void shift_mode(GuardMode to, const char* why, bool is_recovery) noexcept;
  // Doubles / halves the effective N. Return false when already at the
  // respective bound (caller then moves a real rung instead).
  bool widen_sample_rate(const char* why) noexcept;
  bool tighten_sample_rate(const char* why) noexcept;
  void record_ladder(GuardMode from, GuardMode to, const char* why,
                     bool is_recovery) noexcept;  // callers hold transition_mu_

  GovernorConfig cfg_;
  std::size_t budget_ = 0;
  std::size_t high_mark_ = 0;
  std::size_t low_mark_ = 0;
  std::atomic<int> mode_{0};
  std::atomic<std::uint64_t> ok_streak_{0};
  std::atomic<std::uint64_t> backoff_{1};  // doubles per relapse, capped
  std::atomic<std::uint64_t> sample_n_{64};        // effective 1-in-N
  std::atomic<std::uint64_t> pressure_ticks_{0};   // sampled-rung pressure
  std::atomic<std::uint64_t> last_transition_ns_{0};
  std::atomic<std::uint64_t> residency_ns_[4] = {};
  SampleSlot sample_slots_[kSampleSlots];
  std::mutex transition_mu_;
  GovernorCounters ctr_;
  // Transition history: writers (under transition_mu_) fill the slot at
  // head % capacity, then release-publish the new head; lock-free readers
  // (the crash-dump section) acquire-load the head and copy backwards.
  LadderRecord ladder_[kLadderHistory] = {};
  std::atomic<std::uint64_t> ladder_head_{0};  // total transitions recorded
};

// Records a guard-layer error swallowed at a C boundary (LD_PRELOAD paths):
// bumps the process governor's dpg_guard_errors counter.
void note_guard_error() noexcept;

}  // namespace dpg::core
