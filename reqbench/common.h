// Shared machinery of the request-level benchmark programs (rb_rpc, rb_pool).
//
// Nothing here includes dpguard: rb_rpc must stay a plain malloc/free
// program so it can be measured natively and under libdpg_preload.so.
//
// A program runs `workers` closed-loop threads. Worker w serves its request k
// (k = 0, 1, ...) from a stream seeded only by (seed, w, k), so the same
// seed gives the same requests and every response checksum is a pure
// function of the stream. A guarded run records every checksum; the native
// twin replays exactly the same per-worker request counts and compares them.
//
// Per-request buffers (latencies, checksums, spans) are mmap'd, not malloc'd,
// so the bookkeeping does not add to the heap under test.
#pragma once

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace rb {

// ---------------------------------------------------------------------------
// Deterministic inputs
// ---------------------------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

class Rng {
 public:
  explicit Rng(std::uint64_t s) : s_(s) {}
  std::uint64_t next() { return s_ = mix64(s_); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Log-uniform size in [lo, hi]: small objects dominate, as in servers.
  std::size_t size_logu(std::size_t lo, std::size_t hi) {
    const double f = static_cast<double>(next() >> 11) * 0x1.0p-53;
    const double v = static_cast<double>(lo) *
                     std::exp(f * std::log(static_cast<double>(hi) / lo));
    return std::clamp(static_cast<std::size_t>(v), lo, hi);
  }

 private:
  std::uint64_t s_;
};

inline Rng request_rng(std::uint64_t seed, unsigned worker, std::uint64_t k) {
  return Rng(combine(combine(mix64(seed), worker + 1), k));
}

// Full-buffer 64-bit hash (four independent lanes so it runs near memory
// speed): the "send" side of a streamed response.
inline std::uint64_t hash_bytes(const void* data, std::size_t n,
                                std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t a = h, b = h ^ 1, c = h ^ 2, d = h ^ 3;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, sizeof w);
    a = (a ^ w[0]) * 0x100000001b3ull;
    b = (b ^ w[1]) * 0x100000001b3ull;
    c = (c ^ w[2]) * 0x100000001b3ull;
    d = (d ^ w[3]) * 0x100000001b3ull;
  }
  for (; i < n; ++i) a = (a ^ p[i]) * 0x100000001b3ull;
  return combine(combine(a, b), combine(c, d + n));
}

// Sparse digest: both ends plus every 256th byte. Cheap enough that
// per-object touch work stays small next to allocation cost.
inline std::uint64_t digest(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = n;
  for (std::size_t i = 0; i < n; i += 256) h = combine(h, p[i]);
  return combine(h, p[n - 1]);
}

// The compiler may pair a visible malloc with its free and drop both, or
// fold a load from memory it just wrote; hiding the pointer keeps every
// allocator call and every access real.
template <typename T>
T* opaque(T* p) {
  asm volatile("" : "+r"(p));
  return p;
}

// ---------------------------------------------------------------------------
// Clocks, process counters
// ---------------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline unsigned worker_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned n = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    n = static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::clamp(n, 1u, 4u);
}

// Reads a small /proc file with raw syscalls (no allocation) into `buf`.
inline std::size_t read_proc(const char* path, char* buf, std::size_t cap) {
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  std::size_t len = 0;
  while (len + 1 < cap) {
    const ssize_t r = ::read(fd, buf + len, cap - 1 - len);
    if (r <= 0) break;
    len += static_cast<std::size_t>(r);
  }
  ::close(fd);
  buf[len] = '\0';
  return len;
}

// Line count of /proc/self/maps: the kernel's real mapping count.
inline long count_maps() {
  const int fd = ::open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  static thread_local char buf[1 << 16];
  long lines = 0;
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r <= 0) break;
    for (ssize_t i = 0; i < r; ++i) lines += buf[i] == '\n';
  }
  ::close(fd);
  return lines;
}

// VmHWM (peak RSS) in KiB.
inline long vm_hwm_kb() {
  char buf[4096];
  read_proc("/proc/self/status", buf, sizeof buf);
  const char* p = std::strstr(buf, "VmHWM:");
  return p != nullptr ? std::strtol(p + 6, nullptr, 10) : -1;
}

struct Usage {
  double user_us = 0, sys_us = 0;
  long minflt = 0, nvcsw = 0, nivcsw = 0;
  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
    u.sys_us = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
    u.minflt = ru.ru_minflt;
    u.nvcsw = ru.ru_nvcsw;
    u.nivcsw = ru.ru_nivcsw;
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {user_us - o.user_us, sys_us - o.sys_us, minflt - o.minflt,
            nvcsw - o.nvcsw, nivcsw - o.nivcsw};
  }
};

// ---------------------------------------------------------------------------
// mmap-backed fixed-capacity array (lazily populated by the kernel)
// ---------------------------------------------------------------------------

template <typename T>
class MappedArray {
 public:
  explicit MappedArray(std::size_t cap) : cap_(cap) {
    void* p = ::mmap(nullptr, cap * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("reqbench: mmap");
      std::exit(2);
    }
    data_ = static_cast<T*>(p);
  }
  ~MappedArray() { ::munmap(data_, cap_ * sizeof(T)); }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  // Bytes of the array the process has touched.
  [[nodiscard]] std::size_t touched_bytes() const {
    const std::size_t page = 4096;
    return (size_ * sizeof(T) + page - 1) / page * page;
  }
  bool push(const T& v) {
    if (size_ == cap_) return false;
    data_[size_++] = v;
    return true;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }

 private:
  T* data_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

// Samples the host on its own thread: every 100 ms the CPU time the
// hypervisor stole from this machine (the steal column of /proc/stat), and
// every 500 ms the mapping count, keeping its peak. Near the kernel's
// 65530-mapping ceiling one read of /proc/self/maps costs tens of
// milliseconds of kernel time, so reading it faster would take a visible
// share of a core from the workers.
class HostSampler {
 public:
  HostSampler() : thread_([this] { loop(); }) {}
  ~HostSampler() { stop(); }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  // Joins the sampler; returns the peak mapping count.
  long stop() {
    if (thread_.joinable()) {
      done_.store(true);
      thread_.join();
      note(count_maps());
    }
    return peak_;
  }

  // Share of the machine's CPU time in [from_ns, to_ns) that the hypervisor
  // stole, from the samples bracketing the interval. Call after stop().
  [[nodiscard]] double steal_frac(std::uint64_t from_ns,
                                  std::uint64_t to_ns) const {
    if (ticks_.size() < 2) return 0;
    std::size_t a = 0, b = ticks_.size() - 1;
    for (std::size_t i = 0; i < ticks_.size(); ++i) {
      if (ticks_[i].t_ns <= from_ns) a = i;
      if (ticks_[i].t_ns >= to_ns) {
        b = i;
        break;
      }
    }
    const std::uint64_t total = ticks_[b].total - ticks_[a].total;
    return total != 0
               ? static_cast<double>(ticks_[b].steal - ticks_[a].steal) / total
               : 0;
  }

 private:
  struct Tick {
    std::uint64_t t_ns = 0, steal = 0, total = 0;
  };

  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ..." in clock ticks.
  static Tick read_tick() {
    Tick t;
    t.t_ns = now_ns();
    char buf[512];
    read_proc("/proc/stat", buf, sizeof buf);
    const char* p = buf + 3;
    for (int field = 0; field < 8; ++field) {
      char* end = nullptr;
      const std::uint64_t v = std::strtoull(p, &end, 10);
      if (end == p) break;
      t.total += v;
      if (field == 7) t.steal = v;
      p = end;
    }
    return t;
  }
  void note(long n) { peak_ = std::max(peak_, n); }
  void loop() {
    for (unsigned i = 0; !done_.load(); ++i) {
      ticks_.push(read_tick());
      if (i % 5 == 0) note(count_maps());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  std::atomic<bool> done_{false};
  long peak_ = 0;                      // written by the sampler until joined
  MappedArray<Tick> ticks_{1u << 16};  // likewise
  std::thread thread_;  // last: started after the members it uses
};

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------
//
// One span per call the benchmark makes into a layer, plus one root span per
// request. Every kSpanEvery-th request is traced, so span memory stays
// bounded while each percentile still rests on many thousands of samples.

inline constexpr std::uint64_t kSpanEvery = 4;
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint64_t start = 0, end = 0;
  std::uint64_t req = 0;      // (worker << 40) | request index
  std::uint32_t parent = kNoParent;
  std::uint32_t name = 0;     // index into the program's span-name table
};

class SpanLog {
 public:
  SpanLog() : spans_(1u << 18) {}

  void begin_request(bool on, std::uint64_t req) {
    on_ = on;
    req_ = req;
    root_ = kNoParent;
  }
  [[nodiscard]] bool on() const { return on_; }

  // Opens a span; returns its index, or kNoParent when not traced.
  std::uint32_t open(std::uint32_t name, std::uint64_t start) {
    if (!on_) return kNoParent;
    Span s;
    s.start = start;
    s.req = req_;
    s.parent = root_;
    s.name = name;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    if (!spans_.push(s)) {
      on_ = false;
      dropped_++;
      return kNoParent;
    }
    if (root_ == kNoParent) root_ = idx;
    return idx;
  }
  void close(std::uint32_t idx, std::uint64_t end) {
    if (idx != kNoParent) spans_[idx].end = end;
  }

  MappedArray<Span>& spans() { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  MappedArray<Span> spans_;
  bool on_ = false;
  std::uint64_t req_ = 0;
  std::uint32_t root_ = kNoParent;
  std::uint64_t dropped_ = 0;
};

// RAII span around one call into a layer.
class Timed {
 public:
  Timed(SpanLog& log, std::uint32_t name)
      : log_(log), idx_(log.on() ? log.open(name, now_ns()) : kNoParent) {}
  ~Timed() {
    if (idx_ != kNoParent) log_.close(idx_, now_ns());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t idx_;
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::string policy = "native";  // native | guarded
  std::uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  bool setup_only = false;
  bool snapshots = false;      // rb_rpc: raise SIGUSR1 around the timed phase
  std::string out;             // checksum file written by a guarded run
  std::string replay;          // checksum file a native twin replays
  bool verify_only = false;    // replay: one pass, no timing passes
  std::string spans;           // span dump path (traced runs)
  std::string inject;          // self-check faults: corrupt | probe
};

inline Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "reqbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--policy") o.policy = val();
    else if (a == "--seed") o.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(val().c_str(), nullptr);
    else if (a == "--trace") o.trace = val() == "1";
    else if (a == "--setup-only") o.setup_only = true;
    else if (a == "--snapshots") o.snapshots = true;
    else if (a == "--out") o.out = val();
    else if (a == "--replay") o.replay = val();
    else if (a == "--verify-only") o.verify_only = true;
    else if (a == "--spans") o.spans = val();
    else if (a == "--inject") o.inject = val();
    else {
      std::fprintf(stderr, "reqbench: unknown argument %s\n", a.c_str());
      std::exit(2);
    }
  }
  if (o.policy != "native" && o.policy != "guarded") {
    std::fprintf(stderr, "reqbench: --policy must be native or guarded\n");
    std::exit(2);
  }
  return o;
}

// ---------------------------------------------------------------------------
// Per-worker record of one run
// ---------------------------------------------------------------------------

struct WorkerLog {
  bool timed = false;             // set while serving a timed request
  std::uint64_t timed_begin = 0;  // first request of the timed phase
  std::uint64_t timed_end = 0;    // one past the last timed request
  std::uint64_t busy_ns = 0;      // wall time spent on timed requests
  std::uint64_t passes = 1;       // replay passes over the timed range
  std::uint64_t null_allocs = 0;
  std::uint64_t bad_handoffs = 0;  // handed-over responses that failed verify
  MappedArray<std::uint64_t> sums{1u << 24};
  MappedArray<std::uint32_t> lat_ns{1u << 24};  // timed requests only
  MappedArray<std::uint32_t> done_us{1u << 24};  // their completion time,
                                                 // from the timed start
  SpanLog spans;

  // Memory these records hold, which run.py takes out of the peak RSS.
  [[nodiscard]] std::size_t record_bytes() {
    return sums.touched_bytes() + lat_ns.touched_bytes() +
           done_us.touched_bytes() + spans.spans().touched_bytes();
  }
};

// Checksum file: the worker count, then per worker the index of its first
// timed request, one past its last, its request count, and one checksum per
// request.
inline bool write_sums(const std::string& path,
                       const std::vector<WorkerLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t n = logs.size();
  bool ok = std::fwrite(&n, sizeof n, 1, f) == 1;
  for (WorkerLog* w : logs) {
    const std::uint64_t hdr[3] = {w->timed_begin, w->timed_end,
                                  w->sums.size()};
    ok = ok && std::fwrite(hdr, sizeof hdr, 1, f) == 1;
    ok = ok && std::fwrite(w->sums.begin(), sizeof(std::uint64_t),
                           w->sums.size(), f) == w->sums.size();
  }
  return std::fclose(f) == 0 && ok;
}

struct ReplayPlan {
  struct Worker {
    std::uint64_t timed_begin = 0, timed_end = 0;
    std::vector<std::uint64_t> sums;
  };
  std::vector<Worker> workers;
};

inline ReplayPlan read_sums(const std::string& path) {
  ReplayPlan plan;
  FILE* f = std::fopen(path.c_str(), "rb");
  std::uint64_t n = 0;
  if (f == nullptr || std::fread(&n, sizeof n, 1, f) != 1 || n > 64) {
    std::fprintf(stderr, "reqbench: unreadable checksum file %s\n",
                 path.c_str());
    std::exit(2);
  }
  plan.workers.resize(n);
  for (auto& w : plan.workers) {
    std::uint64_t hdr[3];
    if (std::fread(hdr, sizeof hdr, 1, f) != 1 || hdr[0] >= hdr[1] ||
        hdr[1] > hdr[2] || hdr[2] > (1u << 24)) {
      std::fprintf(stderr, "reqbench: malformed checksum file\n");
      std::exit(2);
    }
    w.timed_begin = hdr[0];
    w.timed_end = hdr[1];
    w.sums.resize(hdr[2]);
    if (std::fread(w.sums.data(), sizeof(std::uint64_t), hdr[2], f) !=
        hdr[2]) {
      std::fprintf(stderr, "reqbench: truncated checksum file\n");
      std::exit(2);
    }
  }
  std::fclose(f);
  return plan;
}

// ---------------------------------------------------------------------------
// Closed-loop runner
// ---------------------------------------------------------------------------

// Every free run serves for kWarmupNs before its timed phase starts.
inline constexpr std::uint64_t kWarmupNs = 2'000'000'000;

// A replay times the timed range in kReplayChunks chunks per pass and
// repeats it until the passes add up to kReplayMinNs per worker: the native
// twin of a pool workload serves its whole timed range in milliseconds, too
// short to time once. A worker's busy time is the median chunk's time per
// request times the range's length, so a burst of host noise moves few
// chunks, as the guarded side's median second does.
inline constexpr std::uint64_t kReplayChunks = 20;
inline constexpr std::uint64_t kReplayMaxPasses = 1000;
inline constexpr std::uint64_t kReplayMinNs = 1'000'000'000;

// The timed phase of a free run, as run_closed_loop saw it end.
struct TimedPhase {
  std::uint64_t start_ns = 0;    // when it began (steady clock)
  long vm_hwm_kb = 0;            // peak RSS when the workers had stopped
  std::uint64_t records_kb = 0;  // the part of it the workers' records hold
};

// `serve(worker, k, log)` serves request k of `worker` and returns its
// response checksum. Free run (no replay plan): every worker serves until the
// warm-up deadline, then the timed phase runs until `seconds` later, and
// `on_phase(0)` / `on_phase(1)` fire on the calling thread at its start and
// end. Replay: each worker serves exactly the requests the plan lists, then
// times the timed range as above.
template <typename Serve, typename OnPhase>
TimedPhase run_closed_loop(const Options& o, std::vector<WorkerLog*>& logs,
                           const ReplayPlan* plan, Serve&& serve,
                           OnPhase&& on_phase) {
  const unsigned n = static_cast<unsigned>(logs.size());
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> warm_deadline{0}, end_deadline{0};

  auto body = [&](unsigned w) {
    WorkerLog& log = *logs[w];
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    if (plan != nullptr) {
      const auto& pw = plan->workers[w];
      const std::uint64_t tb = pw.timed_begin, te = pw.timed_end;
      const std::uint64_t chunk =
          std::max<std::uint64_t>(1, (te - tb) / kReplayChunks);
      log.timed_begin = tb;
      log.timed_end = te;
      std::vector<double> per_request;  // ns per request of each chunk
      std::uint64_t spent = 0, pass = 0;
      do {
        // Only the first pass records checksums (and serves the warm-up).
        std::uint64_t k = pass == 0 ? 0 : tb;
        for (; k < tb; ++k) {
          log.timed = false;
          log.sums.push(serve(w, k, log));
        }
        while (k < te) {
          const std::uint64_t first = k, last = std::min(te, k + chunk);
          const std::uint64_t t = now_ns();
          for (; k < last; ++k) {
            log.timed = true;
            const std::uint64_t sum = serve(w, k, log);
            if (pass == 0) log.sums.push(sum);
          }
          const std::uint64_t d = now_ns() - t;
          spent += d;
          per_request.push_back(static_cast<double>(d) / (last - first));
        }
        ++pass;
      } while (!o.verify_only && spent < kReplayMinNs &&
               pass < kReplayMaxPasses);
      auto mid = per_request.begin() + per_request.size() / 2;
      std::nth_element(per_request.begin(), mid, per_request.end());
      log.busy_ns = static_cast<std::uint64_t>(*mid * (te - tb));
      log.passes = pass;
      return;
    }
    bool timed = false;
    std::uint64_t t_first = 0, t_last = 0;
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t t0 = now_ns();
      if (!timed && t0 >= warm_deadline.load()) {
        timed = true;
        log.timed_begin = k;
        t_first = t0;
      }
      if (timed && t0 >= end_deadline.load()) {
        log.timed_end = k;
        break;
      }
      log.timed = timed;
      log.spans.begin_request(o.trace && timed && k % kSpanEvery == 0,
                              (std::uint64_t{w} << 40) | k);
      const std::uint64_t sum = serve(w, k, log);
      t_last = now_ns();
      if (!log.sums.push(sum)) {
        log.timed_end = k + 1;
        break;
      }
      if (timed) {
        log.lat_ns.push(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t_last - t0, 0xffffffffu)));
        log.done_us.push(
            static_cast<std::uint32_t>((t_last - warm_deadline.load()) / 1000));
      }
    }
    log.busy_ns = t_last - t_first;
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned w = 0; w < n; ++w) threads.emplace_back(body, w);
  while (ready.load() < n) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  warm_deadline = t0 + kWarmupNs;
  end_deadline = warm_deadline.load() + static_cast<std::uint64_t>(o.seconds * 1e9);
  go = true;
  if (plan == nullptr) {
    while (now_ns() < warm_deadline.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    on_phase(0);
  }
  for (auto& t : threads) t.join();
  TimedPhase phase;
  phase.start_ns = warm_deadline.load();
  phase.vm_hwm_kb = vm_hwm_kb();
  for (WorkerLog* w : logs) phase.records_kb += w->record_bytes() / 1024;
  if (plan == nullptr) on_phase(1);
  return phase;
}

// ---------------------------------------------------------------------------
// Result output (one JSON object on stdout)
// ---------------------------------------------------------------------------

// Runs the three detection probes after a guarded run: probe(kind, suppress)
// with kind 0 = dangling read, 1 = dangling write, 2 = double free, returning
// whether the guard caught it. Self-check injection "probe" suppresses the
// first. Returns the ",\"probes\":{...}" JSON fragment.
template <typename Probe>
std::string run_probes(Probe&& probe, const Options& o) {
  static const char* kNames[] = {"dangling_read", "dangling_write",
                                 "double_free"};
  std::string json = ",\"probes\":{";
  for (int kind = 0; kind < 3; ++kind) {
    const bool hit = probe(kind, kind == 0 && o.inject == "probe");
    json += std::string(kind ? "," : "") + "\"" + kNames[kind] +
            "\":" + (hit ? "true" : "false");
  }
  return json + "}";
}

inline double percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + lo + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

// Span names are indices into `names`. Writes every span to `path` and
// appends, per name, its count, duration percentiles and self time (span
// duration minus the time its direct children cover) to `json`.
inline void summarize_spans(const std::vector<WorkerLog*>& logs,
                            const std::vector<const char*>& names,
                            const std::string& path, std::string& json) {
  FILE* f = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  if (f != nullptr) std::fputs("req\tspan\tparent\tname\tstart_ns\tend_ns\n", f);
  std::vector<std::vector<std::uint32_t>> durs(names.size());
  std::vector<double> self(names.size(), 0);
  std::uint64_t roots = 0, dropped = 0;
  for (WorkerLog* w : logs) {
    auto& s = w->spans.spans();
    dropped += w->spans.dropped();
    std::vector<std::uint64_t> child(s.size(), 0);
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i].parent != kNoParent) child[s[i].parent] += s[i].end - s[i].start;
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint64_t d = s[i].end - s[i].start;
      durs[s[i].name].push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(d, 0xffffffffu)));
      self[s[i].name] += static_cast<double>(d - std::min(d, child[i]));
      roots += s[i].parent == kNoParent;
      if (f != nullptr) {
        std::fprintf(f, "%llu\t%zu\t%lld\t%s\t%llu\t%llu\n",
                     static_cast<unsigned long long>(s[i].req), i,
                     s[i].parent == kNoParent ? -1LL
                                              : static_cast<long long>(s[i].parent),
                     names[s[i].name], static_cast<unsigned long long>(s[i].start),
                     static_cast<unsigned long long>(s[i].end));
      }
    }
  }
  if (f != nullptr) std::fclose(f);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"spans\":{\"traced_requests\":%llu,\"dropped\":%llu",
                static_cast<unsigned long long>(roots),
                static_cast<unsigned long long>(dropped));
  json += buf;
  for (std::size_t n = 0; n < names.size(); ++n) {
    auto& d = durs[n];
    const double p50 = percentile(d, 0.50), p99 = percentile(d, 0.99);
    std::snprintf(buf, sizeof buf,
                  ",\"%s\":{\"count\":%zu,\"p50_ns\":%.1f,\"p99_ns\":%.1f,"
                  "\"self_ns\":%.0f}",
                  names[n], d.size(), p50, p99, self[n]);
    json += buf;
  }
  json += "}";
}

// Common result fields of a run. `extra` is appended verbatim (it starts
// with a comma when non-empty).
// Throughput, latency percentiles and host steal of each whole second of
// the timed phase, as a JSON fragment;
// requests finishing after the deadline are left out. run.py reports
// medians over these windows, which a single stall cannot move.
inline std::string window_stats(const std::vector<WorkerLog*>& logs,
                                double seconds, const TimedPhase& phase,
                                const HostSampler& host) {
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double width_us = seconds * 1e6 / static_cast<double>(n);
  std::vector<std::vector<std::uint32_t>> lat(n);
  for (WorkerLog* w : logs) {
    for (std::size_t i = 0; i < w->done_us.size(); ++i) {
      const auto win = static_cast<std::size_t>(w->done_us[i] / width_us);
      if (win < n) lat[win].push_back(w->lat_ns[i]);
    }
  }
  std::string rps = "[", p50 = "[", p99 = "[", steal = "[";
  char buf[64];
  for (std::size_t i = 0; i < n; ++i) {
    const char* sep = i ? "," : "";
    std::snprintf(buf, sizeof buf, "%s%.3f", sep,
                  lat[i].size() * 1e6 / width_us);
    rps += buf;
    std::snprintf(buf, sizeof buf, "%s%.1f", sep, percentile(lat[i], 0.50));
    p50 += buf;
    std::snprintf(buf, sizeof buf, "%s%.1f", sep, percentile(lat[i], 0.99));
    p99 += buf;
    const auto from =
        phase.start_ns + static_cast<std::uint64_t>(i * width_us * 1e3);
    const auto to = from + static_cast<std::uint64_t>(width_us * 1e3);
    std::snprintf(buf, sizeof buf, "%s%.4f", sep, host.steal_frac(from, to));
    steal += buf;
  }
  return ",\"windows\":{\"rps\":" + rps + "],\"p50_ns\":" + p50 +
         "],\"p99_ns\":" + p99 + "],\"steal\":" + steal + "]}";
}

inline void print_result(const Options& o, const std::vector<WorkerLog*>& logs,
                         const ReplayPlan* plan, const TimedPhase& phase,
                         const Usage& usage, long vma_peak, long maps_end,
                         const std::string& extra) {
  std::uint64_t requests = 0, total = 0, nulls = 0, bad = 0, busy = 0,
                mismatches = 0, passes = 0;
  std::vector<std::uint32_t> lat;
  for (WorkerLog* w : logs) {
    requests += w->timed_end - w->timed_begin;
    total += w->sums.size();
    nulls += w->null_allocs;
    bad += w->bad_handoffs;
    busy += w->busy_ns;
    passes = std::max(passes, w->passes);
    lat.insert(lat.end(), w->lat_ns.begin(), w->lat_ns.end());
  }
  if (plan != nullptr) {
    for (std::size_t w = 0; w < logs.size(); ++w) {
      const auto& want = plan->workers[w].sums;
      for (std::size_t k = 0; k < want.size(); ++k) {
        mismatches += logs[w]->sums[k] != want[k];
      }
    }
  }
  const double lat_p50 = percentile(lat, 0.50);
  const double lat_p99 = percentile(lat, 0.99);
  std::printf(
      "{\"workload\":\"%s\",\"policy\":\"%s\",\"workers\":%zu,"
      "\"requests\":%llu,\"requests_total\":%llu,\"busy_ns\":%llu,"
      "\"passes\":%llu,"
      "\"seconds\":%.6f,\"null_allocs\":%llu,\"bad_handoffs\":%llu,"
      "\"mismatches\":%llu,\"latency\":{\"count\":%zu,\"p50_ns\":%.1f,"
      "\"p99_ns\":%.1f},\"vma_peak\":%ld,\"maps_end\":%ld,\"vm_hwm_kb\":%ld,"
      "\"records_kb\":%llu,"
      "\"rusage\":{\"user_us\":%.0f,\"sys_us\":%.0f,\"minflt\":%ld,"
      "\"nvcsw\":%ld,\"nivcsw\":%ld}%s}\n",
      o.workload.c_str(), o.policy.c_str(), logs.size(),
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(busy),
      static_cast<unsigned long long>(passes), o.seconds,
      static_cast<unsigned long long>(nulls),
      static_cast<unsigned long long>(bad),
      static_cast<unsigned long long>(mismatches), lat.size(), lat_p50,
      lat_p99, vma_peak, maps_end, phase.vm_hwm_kb,
      static_cast<unsigned long long>(phase.records_kb), usage.user_us,
      usage.sys_us,
      usage.minflt, usage.nvcsw, usage.nivcsw, extra.c_str());
  std::fflush(stdout);
}

}  // namespace rb
