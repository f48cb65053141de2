#include "core/degrade.h"

#include <ctime>
#include <cstdio>
#include <cstring>

#include "obs/dump.h"
#include "obs/env.h"
#include "obs/metrics.h"

namespace dpg::core {

namespace {

constexpr std::size_t kKernelDefaultMapCount = 65530;
constexpr std::uint64_t kMaxBackoff = 64;

// Reads /proc/sys/vm/max_map_count without touching the heap (this can run
// during the first allocation under the preload depth guard).
std::size_t read_max_map_count() noexcept {
  std::FILE* f = std::fopen("/proc/sys/vm/max_map_count", "re");
  if (f == nullptr) return kKernelDefaultMapCount;
  char buf[32] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::size_t v = 0;
  for (std::size_t i = 0; i < n && buf[i] >= '0' && buf[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::size_t>(buf[i] - '0');
  }
  return v != 0 ? v : kKernelDefaultMapCount;
}

std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

DegradationGovernor::DegradationGovernor(GovernorConfig cfg) : cfg_(cfg) {
  budget_ = cfg_.vma_budget != 0 ? cfg_.vma_budget : read_max_map_count();
  high_mark_ = static_cast<std::size_t>(static_cast<double>(budget_) *
                                        cfg_.high_water);
  low_mark_ = static_cast<std::size_t>(static_cast<double>(budget_) *
                                       cfg_.low_water);
  if (high_mark_ == 0) high_mark_ = 1;
  if (cfg_.sample_rate == 0) cfg_.sample_rate = 1;
  if (cfg_.sample_rate_max < cfg_.sample_rate) {
    cfg_.sample_rate_max = cfg_.sample_rate;
  }
  sample_n_.store(cfg_.sample_rate, std::memory_order_relaxed);
  ctr_.sample_rate_effective.store(cfg_.sample_rate,
                                   std::memory_order_relaxed);
  last_transition_ns_.store(now_ns(), std::memory_order_relaxed);
}

DegradationGovernor& DegradationGovernor::process() {
  // Leaked intentionally: engines and the metrics exporter hold pointers for
  // the process lifetime (including static destruction).
  static DegradationGovernor* g = [] {
    GovernorConfig cfg;
    cfg.vma_budget = static_cast<std::size_t>(obs::env_long(
        "DPG_VMA_BUDGET", 0, 0, 1L << 40));
    cfg.recover_after = static_cast<std::uint64_t>(obs::env_long(
        "DPG_DEGRADE_RECOVER_AFTER", 4096, 0, 1L << 40));
    cfg.quarantine_bytes = static_cast<std::size_t>(obs::env_long(
        "DPG_QUARANTINE_BYTES", long{64} << 20, 0, 1L << 40));
    cfg.sample_rate = static_cast<std::size_t>(obs::env_long(
        "DPG_SAMPLE_RATE", 64, 1, 1L << 30));
    cfg.sample_rate_max = static_cast<std::size_t>(obs::env_long(
        "DPG_SAMPLE_RATE_MAX", 8192, 1, 1L << 30));
    auto* gov = new DegradationGovernor(cfg);
    const GovernorCounters& c = gov->counters();
    obs::register_counter("dpg_degrade_transitions", &c.transitions);
    obs::register_counter("dpg_degrade_mode", &c.mode);
    obs::register_counter("dpg_degrade_syscall_failures", &c.syscall_failures);
    obs::register_counter("dpg_degrade_arena_failures", &c.arena_failures);
    obs::register_counter("dpg_degrade_recoveries", &c.recoveries);
    obs::register_counter("dpg_degrade_vma_estimate", &c.vma_estimate);
    obs::register_counter("dpg_degraded_allocs", &c.degraded_allocs);
    obs::register_counter("dpg_guard_errors", &c.guard_errors);
    obs::register_counter("dpg_sample_rate_effective",
                          &c.sample_rate_effective);
    obs::register_counter("dpg_sample_widens", &c.sample_widens);
    obs::register_counter("dpg_sample_tightens", &c.sample_tightens);
    // Per-rung residency time (ns). Computed so the current rung's gauge
    // includes the in-progress stay; relaxed loads + clock_gettime only, so
    // these are async-signal-safe like every other exporter path.
    obs::register_counter_fn(
        "dpg_rung_residency_ns_full",
        +[](const void* ctx) noexcept {
          return static_cast<const DegradationGovernor*>(ctx)->residency_ns(
              GuardMode::kFullGuard);
        },
        gov);
    obs::register_counter_fn(
        "dpg_rung_residency_ns_sampled",
        +[](const void* ctx) noexcept {
          return static_cast<const DegradationGovernor*>(ctx)->residency_ns(
              GuardMode::kSampled);
        },
        gov);
    obs::register_counter_fn(
        "dpg_rung_residency_ns_quarantine",
        +[](const void* ctx) noexcept {
          return static_cast<const DegradationGovernor*>(ctx)->residency_ns(
              GuardMode::kQuarantineOnly);
        },
        gov);
    obs::register_counter_fn(
        "dpg_rung_residency_ns_unguarded",
        +[](const void* ctx) noexcept {
          return static_cast<const DegradationGovernor*>(ctx)->residency_ns(
              GuardMode::kUnguarded);
        },
        gov);
    // Contribute the ladder history to crash dumps. The section renderer is
    // async-signal-safe: history_consistent() is lock-free and the payload
    // is plain struct copies into the writer's scratch buffer. The
    // generation-checked read guarantees hdr.current_mode agrees with the
    // newest ladder entry even when a demotion is in flight.
    obs::dump::register_section(
        obs::dump::Tag::kLadder,
        +[](void* ctx, char* buf, std::size_t cap) noexcept -> std::size_t {
          return DegradationGovernor::render_ladder_section(
              static_cast<DegradationGovernor*>(ctx), buf, cap);
        },
        gov);
    return gov;
  }();
  return *g;
}

std::size_t DegradationGovernor::render_ladder_section(
    DegradationGovernor* self, char* buf, std::size_t cap) noexcept {
  constexpr std::size_t kMax = kLadderHistory;
  LadderRecord recs[kMax];
  std::uint32_t mode_now = 0;
  const std::size_t n = self->history_consistent(recs, kMax, &mode_now);
  const std::size_t need =
      sizeof(obs::dump::LadderHeader) + n * sizeof(obs::dump::LadderEntry);
  if (need > cap) return 0;
  obs::dump::LadderHeader hdr{};
  hdr.current_mode = mode_now;
  hdr.count = static_cast<std::uint32_t>(n);
  hdr.sample_rate = static_cast<std::uint32_t>(self->sample_rate());
  std::memcpy(buf, &hdr, sizeof hdr);
  char* p = buf + sizeof hdr;
  for (std::size_t i = 0; i < n; ++i) {
    obs::dump::LadderEntry e{};
    e.monotonic_ns = recs[i].monotonic_ns;
    e.from_mode = recs[i].from_mode;
    e.to_mode = recs[i].to_mode;
    e.recovery = recs[i].recovery;
    std::memcpy(e.reason, recs[i].reason, sizeof e.reason);
    std::memcpy(p, &e, sizeof e);
    p += sizeof e;
  }
  return need;
}

void DegradationGovernor::record_ladder(GuardMode from, GuardMode to,
                                        const char* why,
                                        bool is_recovery) noexcept {
  // Fill the slot, then release-publish the head so lock-free readers never
  // see a torn entry. Callers hold transition_mu_.
  const std::uint64_t head = ladder_head_.load(std::memory_order_relaxed);
  LadderRecord& rec = ladder_[head % kLadderHistory];
  rec.monotonic_ns = now_ns();
  rec.from_mode = static_cast<std::uint32_t>(from);
  rec.to_mode = static_cast<std::uint32_t>(to);
  rec.recovery = is_recovery ? 1u : 0u;
  std::memset(rec.reason, 0, sizeof rec.reason);
  std::strncpy(rec.reason, why, sizeof rec.reason - 1);
  ladder_head_.store(head + 1, std::memory_order_release);
}

void DegradationGovernor::shift_mode(GuardMode to, const char* why,
                                     bool is_recovery) noexcept {
  std::lock_guard lock(transition_mu_);
  const GuardMode from = mode();
  if (from == to) return;
  // Settle the residency clock on the rung being left.
  const std::uint64_t now = now_ns();
  const std::uint64_t since =
      last_transition_ns_.load(std::memory_order_relaxed);
  residency_ns_[static_cast<int>(from) & 3].fetch_add(
      now > since ? now - since : 0, std::memory_order_relaxed);
  last_transition_ns_.store(now, std::memory_order_relaxed);
  // A demotion onto the sampled rung starts at the base rate; a promotion
  // from below keeps the widened N (pressure was recent — tighten under the
  // normal hysteresis before guarding 1-in-base again).
  if (to == GuardMode::kSampled &&
      static_cast<int>(to) > static_cast<int>(from)) {
    sample_n_.store(cfg_.sample_rate, std::memory_order_relaxed);
    ctr_.sample_rate_effective.store(cfg_.sample_rate,
                                     std::memory_order_relaxed);
  }
  pressure_ticks_.store(0, std::memory_order_relaxed);
  mode_.store(static_cast<int>(to), std::memory_order_relaxed);
  ctr_.mode.store(static_cast<std::uint64_t>(to), std::memory_order_relaxed);
  ctr_.transitions.fetch_add(1, std::memory_order_relaxed);
  if (is_recovery) {
    ctr_.recoveries.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A demotion restarts the recovery clock; if we had recovered before,
    // this is a relapse — require a longer clean streak next time.
    ok_streak_.store(0, std::memory_order_relaxed);
    if (ctr_.recoveries.load(std::memory_order_relaxed) != 0) {
      const std::uint64_t b = backoff_.load(std::memory_order_relaxed);
      if (b < kMaxBackoff) backoff_.store(b * 2, std::memory_order_relaxed);
    }
  }
  obs::record_event(obs::EventKind::kDegrade,
                    static_cast<std::uint64_t>(to),
                    static_cast<std::uint64_t>(from));
  record_ladder(from, to, why, is_recovery);
  std::fprintf(stderr, "dpguard: guard policy %s -> %s (%s)\n",
               to_string(from), to_string(to), why);
  // A real demotion is a fleet-visible event worth a postmortem snapshot.
  // Recoveries are routine; "forced" rungs (tests, fuzz configs) would only
  // add noise. write_crash_dump no-ops when DPG_REPORT_DIR is not armed and
  // skips (no force) when another dump is already in flight.
  if (!is_recovery && std::strcmp(why, "forced") != 0) {
    obs::dump::write_crash_dump("demotion", nullptr);
  }
}

bool DegradationGovernor::widen_sample_rate(const char* why) noexcept {
  std::lock_guard lock(transition_mu_);
  if (mode() != GuardMode::kSampled) return true;  // raced past the rung
  const std::uint64_t n = sample_n_.load(std::memory_order_relaxed);
  if (n >= cfg_.sample_rate_max) return false;  // widest already: demote
  std::uint64_t nn = n * 2;
  if (nn > cfg_.sample_rate_max) nn = cfg_.sample_rate_max;
  sample_n_.store(nn, std::memory_order_relaxed);
  ctr_.sample_rate_effective.store(nn, std::memory_order_relaxed);
  ctr_.sample_widens.fetch_add(1, std::memory_order_relaxed);
  record_ladder(GuardMode::kSampled, GuardMode::kSampled, "sample-widen",
                /*is_recovery=*/false);
  std::fprintf(stderr, "dpguard: sampled guard rate 1-in-%llu (%s)\n",
               static_cast<unsigned long long>(nn), why);
  return true;
}

bool DegradationGovernor::tighten_sample_rate(const char* why) noexcept {
  std::lock_guard lock(transition_mu_);
  if (mode() != GuardMode::kSampled) return true;
  const std::uint64_t n = sample_n_.load(std::memory_order_relaxed);
  if (n <= cfg_.sample_rate) return false;  // at base: promote instead
  std::uint64_t nn = n / 2;
  if (nn < cfg_.sample_rate) nn = cfg_.sample_rate;
  sample_n_.store(nn, std::memory_order_relaxed);
  ctr_.sample_rate_effective.store(nn, std::memory_order_relaxed);
  ctr_.sample_tightens.fetch_add(1, std::memory_order_relaxed);
  record_ladder(GuardMode::kSampled, GuardMode::kSampled, "sample-tighten",
                /*is_recovery=*/true);
  std::fprintf(stderr, "dpguard: sampled guard rate 1-in-%llu (%s)\n",
               static_cast<unsigned long long>(nn), why);
  return true;
}

std::size_t DegradationGovernor::history(LadderRecord* out,
                                         std::size_t max) const noexcept {
  const std::uint64_t head = ladder_head_.load(std::memory_order_acquire);
  std::uint64_t n = head < kLadderHistory ? head : kLadderHistory;
  if (n > max) n = max;
  // Oldest first: the surviving window is [head - n, head).
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = ladder_[(head - n + i) % kLadderHistory];
  }
  return static_cast<std::size_t>(n);
}

std::size_t DegradationGovernor::history_consistent(
    LadderRecord* out, std::size_t max, std::uint32_t* mode_out) const noexcept {
  // shift_mode stores the rung gauge before publishing its ladder entry, so
  // a reader landing between the two would pair the *new* rung with a ring
  // that still ends on the *old* one. Retry until the copy is stable (head
  // unmoved) and the newest entry agrees with the gauge.
  std::size_t n = 0;
  std::uint32_t m = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t h1 = ladder_head_.load(std::memory_order_acquire);
    m = static_cast<std::uint32_t>(mode_.load(std::memory_order_relaxed));
    n = history(out, max);
    const std::uint64_t h2 = ladder_head_.load(std::memory_order_acquire);
    if (h1 != h2) continue;  // ring advanced mid-copy
    if (n == 0 || out[n - 1].to_mode == m) {
      if (mode_out != nullptr) *mode_out = m;
      return n;
    }
  }
  // The writer is suspended between its two stores (e.g. this very thread
  // took the dump signal mid-transition): trust the published ring over the
  // racing gauge so the section stays self-consistent.
  if (n != 0) m = out[n - 1].to_mode;
  if (mode_out != nullptr) *mode_out = m;
  return n;
}

GuardMode DegradationGovernor::on_alloc() noexcept {
  const GuardMode m = mode();
  const std::uint64_t est = ctr_.vma_estimate.load(std::memory_order_relaxed);
  if (m == GuardMode::kFullGuard) {
    if (est >= high_mark_) {
      // Proactive: slow VMA minting before the kernel starts refusing.
      shift_mode(GuardMode::kSampled, "vma-pressure", /*is_recovery=*/false);
      return GuardMode::kSampled;
    }
    return m;
  }
  if (m == GuardMode::kSampled && est >= high_mark_) {
    // Pressure persists on the sampled rung: widen N (fewer guard VMAs per
    // second) in measured steps before conceding the rung entirely.
    ok_streak_.store(0, std::memory_order_relaxed);
    const std::uint64_t t =
        pressure_ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (t >= kPressureInterval) {
      pressure_ticks_.store(0, std::memory_order_relaxed);
      if (!widen_sample_rate("vma-pressure")) {
        shift_mode(GuardMode::kQuarantineOnly, "vma-pressure",
                   /*is_recovery=*/false);
      }
    }
    return mode();
  }
  if (cfg_.recover_after == 0) return m;
  const std::uint64_t streak =
      ok_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t need =
      cfg_.recover_after * backoff_.load(std::memory_order_relaxed);
  if (streak >= need && est <= low_mark_) {
    ok_streak_.store(0, std::memory_order_relaxed);
    // On the sampled rung, relief re-tightens N first; only once back at the
    // base rate does the next clean streak retry full guarding.
    if (m == GuardMode::kSampled && tighten_sample_rate("hysteresis")) {
      return m;
    }
    shift_mode(static_cast<GuardMode>(static_cast<int>(m) - 1), "hysteresis",
               /*is_recovery=*/true);
    return mode();
  }
  return m;
}

void DegradationGovernor::on_syscall_failure(const char* what,
                                             int err) noexcept {
  (void)err;
  ctr_.syscall_failures.fetch_add(1, std::memory_order_relaxed);
  const GuardMode m = mode();
  if (m == GuardMode::kUnguarded) return;  // already at the bottom
  // The sampled rung absorbs refusals by widening N until the ceiling.
  if (m == GuardMode::kSampled && widen_sample_rate(what)) return;
  shift_mode(static_cast<GuardMode>(static_cast<int>(m) + 1), what,
             /*is_recovery=*/false);
}

void DegradationGovernor::on_arena_exhausted() noexcept {
  ctr_.arena_failures.fetch_add(1, std::memory_order_relaxed);
  // Physical exhaustion: guarding costs nothing physical beyond the header
  // word, so no rung change here — the engine drains its quarantine and
  // retries; a repeat failure surfaces as malloc returning nullptr, which is
  // the C contract the host already handles.
}

void DegradationGovernor::add_vmas(long delta) noexcept {
  if (delta >= 0) {
    ctr_.vma_estimate.fetch_add(static_cast<std::uint64_t>(delta),
                                std::memory_order_relaxed);
    return;
  }
  const auto dec = static_cast<std::uint64_t>(-delta);
  std::uint64_t cur = ctr_.vma_estimate.load(std::memory_order_relaxed);
  while (!ctr_.vma_estimate.compare_exchange_weak(
      cur, cur >= dec ? cur - dec : 0, std::memory_order_relaxed)) {
  }
}

bool DegradationGovernor::sample_this_alloc() noexcept {
  // Slot assignment is per-thread and process-global; collisions past
  // kSampleSlots threads merely share a countdown (still 1-in-N in
  // aggregate). The countdown state itself is per-governor.
  static std::atomic<std::uint32_t> next_slot{0};
  thread_local const std::uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kSampleSlots;
  SampleSlot& s = sample_slots_[slot];
  const std::uint64_t c = s.countdown.load(std::memory_order_relaxed);
  if (c == 0) {
    const std::uint64_t n = sample_n_.load(std::memory_order_relaxed);
    s.countdown.store(n > 0 ? n - 1 : 0, std::memory_order_relaxed);
    return true;
  }
  s.countdown.store(c - 1, std::memory_order_relaxed);
  return false;
}

std::uint64_t DegradationGovernor::residency_ns(GuardMode r) const noexcept {
  const int idx = static_cast<int>(r) & 3;
  std::uint64_t total = residency_ns_[idx].load(std::memory_order_relaxed);
  if (static_cast<int>(r) == mode_.load(std::memory_order_relaxed)) {
    const std::uint64_t since =
        last_transition_ns_.load(std::memory_order_relaxed);
    const std::uint64_t now = now_ns();
    if (now > since) total += now - since;
  }
  return total;
}

void DegradationGovernor::force_mode(GuardMode m) noexcept {
  shift_mode(m, "forced", static_cast<int>(m) < static_cast<int>(mode()));
}

void note_guard_error() noexcept {
  DegradationGovernor::process().count_guard_error();
}

}  // namespace dpg::core
