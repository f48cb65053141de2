#include "vm/sys.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/dump.h"
#include "obs/env.h"
#include "obs/metrics.h"
#include "vm/vm_stats.h"

namespace dpg::vm {

SyscallCounters& syscall_counters() noexcept {
  static SyscallCounters counters;
  // Expose the process-wide syscall counters to the metrics exporter once.
  // The instance is immortal, so handing out field pointers is safe.
  static const bool registered = [] {
    obs::register_counter("dpg_mmap_calls", &counters.mmap);
    obs::register_counter("dpg_munmap_calls", &counters.munmap);
    obs::register_counter("dpg_mprotect_calls", &counters.mprotect);
    obs::register_counter("dpg_mremap_calls", &counters.mremap);
    obs::register_counter("dpg_ftruncate_calls", &counters.ftruncate);
    return true;
  }();
  (void)registered;
  return counters;
}

namespace sys {

namespace {

constexpr std::uint64_t kUnset = ~std::uint64_t{0};
constexpr int kMaxEintrRetries = 64;

// One injection clause per syscall. Fields are atomics so the hot path reads
// them lock-free; set_fault_plan() rewrites them while the process is
// quiescent (tests) or at startup (env).
struct Rule {
  std::atomic<bool> armed{false};
  std::atomic<int> err{ENOMEM};
  std::atomic<std::uint64_t> nth{0};         // fail exactly attempt N (0=off)
  std::atomic<std::uint64_t> after{kUnset};  // fail every attempt > N
  std::atomic<std::uint64_t> every{0};       // fail attempts N, 2N, ... (0=off)
  std::atomic<std::uint32_t> prob_ppm{0};    // probabilistic, parts/million
  std::atomic<std::uint64_t> prng{1};        // splitmix64 state for prob
  std::atomic<std::uint64_t> remaining{kUnset};  // count budget
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> injected{0};
};

Rule g_rules[static_cast<unsigned>(Call::kCount)];
std::atomic<std::uint64_t> g_injected_total{0};
std::atomic<std::uint64_t> g_eintr_retries{0};
std::atomic<bool> g_any_armed{false};
// 0 = env not consulted, 1 = consulted.
std::atomic<int> g_env_state{0};

Rule& rule(Call c) noexcept { return g_rules[static_cast<unsigned>(c)]; }

void register_injection_counters() noexcept {
  static const bool registered = [] {
    obs::register_counter("dpg_fault_injected_total", &g_injected_total);
    obs::register_counter("dpg_eintr_retries", &g_eintr_retries);
    obs::register_counter("dpg_fault_injected_mmap",
                          &rule(Call::kMmap).injected);
    obs::register_counter("dpg_fault_injected_munmap",
                          &rule(Call::kMunmap).injected);
    obs::register_counter("dpg_fault_injected_mprotect",
                          &rule(Call::kMprotect).injected);
    obs::register_counter("dpg_fault_injected_mremap",
                          &rule(Call::kMremap).injected);
    obs::register_counter("dpg_fault_injected_ftruncate",
                          &rule(Call::kFtruncate).injected);
    obs::register_counter("dpg_fault_injected_openat",
                          &rule(Call::kOpenAt).injected);
    obs::register_counter("dpg_fault_injected_write",
                          &rule(Call::kWrite).injected);
    // Give the crash-dump writer (which lives below this layer) a path to the
    // same injection plan: DPG_FAULT_INJECT=openat/write clauses reach its
    // pre-abort IO through this hook.
    obs::dump::set_io_fault_hook(+[](bool is_write) noexcept -> int {
      return check_fault(is_write ? Call::kWrite : Call::kOpenAt);
    });
    return true;
  }();
  (void)registered;
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Decides whether this attempt of `c` fails; returns the errno to inject or
// 0. Async-signal-unsafe only via the one-time env read; the steady state is
// a relaxed load plus (when armed) a few relaxed RMWs.
int fault_check(Call c) noexcept {
  if (!g_any_armed.load(std::memory_order_relaxed)) return 0;
  Rule& r = rule(c);
  if (!r.armed.load(std::memory_order_relaxed)) return 0;
  const std::uint64_t n = r.attempts.fetch_add(1, std::memory_order_relaxed) + 1;
  bool hit = false;
  const std::uint64_t nth = r.nth.load(std::memory_order_relaxed);
  if (nth != 0 && n == nth) hit = true;
  const std::uint64_t after = r.after.load(std::memory_order_relaxed);
  if (!hit && after != kUnset && n > after) hit = true;
  const std::uint64_t every = r.every.load(std::memory_order_relaxed);
  if (!hit && every != 0 && n % every == 0) hit = true;
  const std::uint32_t ppm = r.prob_ppm.load(std::memory_order_relaxed);
  if (!hit && ppm != 0) {
    // fetch_add keeps the draw sequence deterministic for a fixed seed even
    // under concurrency (the *set* of draws is fixed; assignment to callers
    // may interleave, which fault tests tolerate for prob plans).
    const std::uint64_t s = r.prng.fetch_add(1, std::memory_order_relaxed);
    hit = splitmix64(s) % 1000000u < ppm;
  }
  if (!hit) return 0;
  std::uint64_t rem = r.remaining.load(std::memory_order_relaxed);
  while (rem != kUnset) {  // bounded clause: consume one failure credit
    if (rem == 0) return 0;
    if (r.remaining.compare_exchange_weak(rem, rem - 1,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  r.injected.fetch_add(1, std::memory_order_relaxed);
  g_injected_total.fetch_add(1, std::memory_order_relaxed);
  return r.err.load(std::memory_order_relaxed);
}

// --- plan parsing (allocation-free: may run under the preload depth guard) --

struct ErrnoName {
  const char* name;
  int value;
};

constexpr ErrnoName kErrnoNames[] = {
    {"ENOMEM", ENOMEM}, {"EINTR", EINTR},   {"EAGAIN", EAGAIN},
    {"EACCES", EACCES}, {"EMFILE", EMFILE}, {"ENFILE", ENFILE},
    {"EEXIST", EEXIST}, {"EINVAL", EINVAL}, {"EIO", EIO},
    {"ENOSPC", ENOSPC},  // EIO/ENOSPC: the crash-dump writer's openat/write
    {"ENOSYS", ENOSYS},  // memfd_create on kernels without it
};

struct ParsedRule {
  bool armed = false;
  int err = ENOMEM;
  std::uint64_t nth = 0;
  std::uint64_t after = kUnset;
  std::uint64_t every = 0;
  std::uint32_t prob_ppm = 0;
  std::uint64_t seed = 1;
  std::uint64_t remaining = kUnset;
};

[[nodiscard]] bool token_eq(const char* begin, const char* end,
                            const char* word) noexcept {
  const std::size_t len = static_cast<std::size_t>(end - begin);
  return std::strlen(word) == len && std::strncmp(begin, word, len) == 0;
}

[[nodiscard]] bool parse_u64(const char* begin, const char* end,
                             std::uint64_t* out) noexcept {
  if (begin == end) return false;
  std::uint64_t v = 0;
  for (const char* p = begin; p != end; ++p) {
    if (*p < '0' || *p > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  *out = v;
  return true;
}

[[nodiscard]] bool parse_errno(const char* begin, const char* end,
                               int* out) noexcept {
  for (const ErrnoName& e : kErrnoNames) {
    if (token_eq(begin, end, e.name)) {
      *out = e.value;
      return true;
    }
  }
  std::uint64_t v = 0;
  if (parse_u64(begin, end, &v) && v > 0 && v < 4096) {
    *out = static_cast<int>(v);
    return true;
  }
  return false;
}

// prob accepts "0.01" or "1" (probability in [0,1]); stored as ppm.
[[nodiscard]] bool parse_prob(const char* begin, const char* end,
                              std::uint32_t* out) noexcept {
  double v = 0.0;
  double scale = 1.0;
  bool seen_dot = false;
  bool seen_digit = false;
  for (const char* p = begin; p != end; ++p) {
    if (*p == '.') {
      if (seen_dot) return false;
      seen_dot = true;
    } else if (*p >= '0' && *p <= '9') {
      seen_digit = true;
      if (seen_dot) {
        scale /= 10.0;
        v += (*p - '0') * scale;
      } else {
        v = v * 10.0 + (*p - '0');
      }
    } else {
      return false;
    }
  }
  if (!seen_digit || v < 0.0 || v > 1.0) return false;
  *out = static_cast<std::uint32_t>(v * 1000000.0 + 0.5);
  return true;
}

[[nodiscard]] bool parse_call(const char* begin, const char* end,
                              Call* out) noexcept {
  if (token_eq(begin, end, "mmap")) *out = Call::kMmap;
  else if (token_eq(begin, end, "munmap")) *out = Call::kMunmap;
  else if (token_eq(begin, end, "mprotect")) *out = Call::kMprotect;
  else if (token_eq(begin, end, "mremap")) *out = Call::kMremap;
  else if (token_eq(begin, end, "ftruncate")) *out = Call::kFtruncate;
  else if (token_eq(begin, end, "memfd_create") || token_eq(begin, end, "memfd"))
    *out = Call::kMemfd;
  else if (token_eq(begin, end, "openat")) *out = Call::kOpenAt;
  else if (token_eq(begin, end, "write")) *out = Call::kWrite;
  else return false;
  return true;
}

// Parses one `name[:opt[=val]]...` clause delimited by [begin,end).
[[nodiscard]] bool parse_clause(const char* begin, const char* end, Call* call,
                                ParsedRule* out) noexcept {
  const char* colon = begin;
  while (colon != end && *colon != ':') ++colon;
  if (!parse_call(begin, colon, call)) return false;
  ParsedRule r;
  r.armed = true;
  const char* p = colon;
  bool any_trigger = false;
  while (p != end) {
    ++p;  // skip ':'
    const char* opt_end = p;
    while (opt_end != end && *opt_end != ':') ++opt_end;
    const char* eq = p;
    while (eq != opt_end && *eq != '=') ++eq;
    const char* val = eq == opt_end ? opt_end : eq + 1;
    if (token_eq(p, eq, "nth")) {
      if (!parse_u64(val, opt_end, &r.nth) || r.nth == 0) return false;
      any_trigger = true;
    } else if (token_eq(p, eq, "after")) {
      if (!parse_u64(val, opt_end, &r.after)) return false;
      any_trigger = true;
    } else if (token_eq(p, eq, "every")) {
      if (!parse_u64(val, opt_end, &r.every) || r.every == 0) return false;
      any_trigger = true;
    } else if (token_eq(p, eq, "prob")) {
      if (!parse_prob(val, opt_end, &r.prob_ppm)) return false;
      any_trigger = true;
    } else if (token_eq(p, eq, "seed")) {
      if (!parse_u64(val, opt_end, &r.seed)) return false;
    } else if (token_eq(p, eq, "errno")) {
      if (!parse_errno(val, opt_end, &r.err)) return false;
    } else if (token_eq(p, eq, "count")) {
      if (!parse_u64(val, opt_end, &r.remaining)) return false;
    } else {
      return false;
    }
    p = opt_end;
  }
  // A bare `name` (no trigger option) means "every attempt fails".
  if (!any_trigger) r.after = 0;
  *out = r;
  return true;
}

void apply_rule(Call c, const ParsedRule& p) noexcept {
  Rule& r = rule(c);
  r.err.store(p.err, std::memory_order_relaxed);
  r.nth.store(p.nth, std::memory_order_relaxed);
  r.after.store(p.after, std::memory_order_relaxed);
  r.every.store(p.every, std::memory_order_relaxed);
  r.prob_ppm.store(p.prob_ppm, std::memory_order_relaxed);
  r.prng.store(p.seed, std::memory_order_relaxed);
  r.remaining.store(p.remaining, std::memory_order_relaxed);
  r.attempts.store(0, std::memory_order_relaxed);
  r.armed.store(p.armed, std::memory_order_relaxed);
}

void disarm_all() noexcept {
  g_any_armed.store(false, std::memory_order_relaxed);
  for (Rule& r : g_rules) {
    r.armed.store(false, std::memory_order_relaxed);
    r.attempts.store(0, std::memory_order_relaxed);
  }
}

}  // namespace

const char* call_name(Call c) noexcept {
  switch (c) {
    case Call::kMmap: return "mmap";
    case Call::kMunmap: return "munmap";
    case Call::kMprotect: return "mprotect";
    case Call::kMremap: return "mremap";
    case Call::kFtruncate: return "ftruncate";
    case Call::kMemfd: return "memfd_create";
    case Call::kOpenAt: return "openat";
    case Call::kWrite: return "write";
    case Call::kCount: break;
  }
  return "?";
}

int check_fault(Call c) noexcept {
  init_fault_plan_from_env();
  return fault_check(c);
}

bool set_fault_plan(const char* spec) noexcept {
  register_injection_counters();
  if (spec == nullptr || spec[0] == '\0') {
    disarm_all();
    return true;
  }
  // Validate the whole spec before arming anything: a plan is all-or-nothing.
  ParsedRule parsed[static_cast<unsigned>(Call::kCount)];
  bool seen[static_cast<unsigned>(Call::kCount)] = {};
  const char* p = spec;
  while (*p != '\0') {
    const char* end = p;
    while (*end != '\0' && *end != ',') ++end;
    Call c{};
    ParsedRule r;
    if (!parse_clause(p, end, &c, &r)) return false;
    parsed[static_cast<unsigned>(c)] = r;
    seen[static_cast<unsigned>(c)] = true;
    p = *end == ',' ? end + 1 : end;
  }
  disarm_all();
  for (unsigned i = 0; i < static_cast<unsigned>(Call::kCount); ++i) {
    if (seen[i]) apply_rule(static_cast<Call>(i), parsed[i]);
  }
  g_any_armed.store(true, std::memory_order_relaxed);
  return true;
}

void clear_fault_plan() noexcept {
  register_injection_counters();
  disarm_all();
}

void init_fault_plan_from_env() noexcept {
  int state = g_env_state.load(std::memory_order_acquire);
  if (state != 0) return;
  // Racing first-callers may both parse; the plan is identical, so last
  // writer wins harmlessly.
  const char* spec = obs::env_str("DPG_FAULT_INJECT");
  if (spec != nullptr && !set_fault_plan(spec)) {
    std::fprintf(stderr,
                 "dpguard: ignoring unparsable DPG_FAULT_INJECT=\"%s\"\n",
                 spec);
  }
  register_injection_counters();
  g_env_state.store(1, std::memory_order_release);
}

bool fault_plan_active() noexcept {
  init_fault_plan_from_env();
  return g_any_armed.load(std::memory_order_relaxed);
}

std::uint64_t injected_failures(Call c) noexcept {
  return rule(c).injected.load(std::memory_order_relaxed);
}

std::uint64_t injected_failures_total() noexcept {
  return g_injected_total.load(std::memory_order_relaxed);
}

std::uint64_t eintr_retries() noexcept {
  return g_eintr_retries.load(std::memory_order_relaxed);
}

// --- wrappers ---------------------------------------------------------------

MapResult map(void* hint, std::size_t len, int prot, int flags, int fd,
              off_t offset) noexcept {
  init_fault_plan_from_env();
  obs::ScopedLatency lat(obs::Hist::kMmapNs);
  syscall_counters().mmap.fetch_add(1, std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (const int e = fault_check(Call::kMmap); e != 0) {
      if (e == EINTR && tries < kMaxEintrRetries) {
        g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return {nullptr, e};
    }
    void* p = ::mmap(hint, len, prot, flags, fd, offset);
    if (p != MAP_FAILED) return {p, 0};
    if (errno == EINTR && tries < kMaxEintrRetries) {
      g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return {nullptr, errno};
  }
}

MapResult remap_dup(void* old_addr, std::size_t len) noexcept {
  init_fault_plan_from_env();
  obs::ScopedLatency lat(obs::Hist::kMremapNs);
  syscall_counters().mremap.fetch_add(1, std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (const int e = fault_check(Call::kMremap); e != 0) {
      if (e == EINTR && tries < kMaxEintrRetries) {
        g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return {nullptr, e};
    }
    void* p = ::mremap(old_addr, 0, len, MREMAP_MAYMOVE);
    if (p != MAP_FAILED) return {p, 0};
    if (errno == EINTR && tries < kMaxEintrRetries) {
      g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return {nullptr, errno};
  }
}

IoResult unmap(void* p, std::size_t len) noexcept {
  init_fault_plan_from_env();
  obs::ScopedLatency lat(obs::Hist::kMunmapNs);
  syscall_counters().munmap.fetch_add(1, std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (const int e = fault_check(Call::kMunmap); e != 0) {
      if (e == EINTR && tries < kMaxEintrRetries) {
        g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return {e};
    }
    if (::munmap(p, len) == 0) return {0};
    if (errno == EINTR && tries < kMaxEintrRetries) {
      g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return {errno};
  }
}

IoResult protect(void* p, std::size_t len, int prot) noexcept {
  init_fault_plan_from_env();
  obs::ScopedLatency lat(obs::Hist::kMprotectNs);
  syscall_counters().mprotect.fetch_add(1, std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (const int e = fault_check(Call::kMprotect); e != 0) {
      if (e == EINTR && tries < kMaxEintrRetries) {
        g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return {e};
    }
    if (::mprotect(p, len, prot) == 0) return {0};
    if (errno == EINTR && tries < kMaxEintrRetries) {
      g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return {errno};
  }
}

IoResult truncate_fd(int fd, off_t len) noexcept {
  init_fault_plan_from_env();
  syscall_counters().ftruncate.fetch_add(1, std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (const int e = fault_check(Call::kFtruncate); e != 0) {
      if (e == EINTR && tries < kMaxEintrRetries) {
        g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return {e};
    }
    if (::ftruncate(fd, len) == 0) return {0};
    if (errno == EINTR && tries < kMaxEintrRetries) {
      g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return {errno};
  }
}

FdResult memfd(const char* name) noexcept {
  init_fault_plan_from_env();
  for (int tries = 0;; ++tries) {
    if (const int e = fault_check(Call::kMemfd); e != 0) {
      if (e == EINTR && tries < kMaxEintrRetries) {
        g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return {-1, e};
    }
    const int fd = static_cast<int>(::memfd_create(name, MFD_CLOEXEC));
    if (fd >= 0) return {fd, 0};
    if (errno == EINTR && tries < kMaxEintrRetries) {
      g_eintr_retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return {-1, errno};
  }
}

}  // namespace sys
}  // namespace dpg::vm
