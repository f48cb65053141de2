// bench_mt — multi-thread guarded malloc/free throughput (DESIGN.md §11).
//
// Two workloads over a ShardedHeap:
//
//   churn    every thread runs tight malloc/free pairs over page-run buffer
//            sizes (4/8 KiB — request/response payloads) — the worst case
//            for the guard layer, since each pair costs an alias mmap + a
//            revocation mprotect unless magazines/batching amortize them
//            away. (Sub-page objects pack many-per-canonical-page and each
//            needs its own alias; magazines cannot amortize those — see
//            DESIGN.md §11 for the documented limit.)
//   server   request/response style: threads allocate buffers, touch them,
//            and hand every 4th one to the next thread over an SPSC ring;
//            the receiver frees it (cross-shard remote-free path).
//
// Two configurations:
//
//   seed     1 shard, no magazines, immediate revocation — the single-mutex
//            paper path this repo shipped with.
//   tuned    one shard per thread, slot magazines plus batched revocation
//            at the default knobs (see tuned_config()).
//
// Reported per row: pairs/sec, amortized (mmap+mprotect)/pair from the
// vm::sys counters, and sampled p99 malloc+free latency. With DPG_BENCH_JSON
// set, every row is exported through the shared bench harness.
//
// --smoke: a few-second self-checking mode for CI (ctest label perf-smoke):
// runs the tuned churn + server workloads, then asserts
//   * amortized (mmap+mprotect)/pair < 0.5 on churn (server keeps objects
//     live in the rings, scattering frees across magazine generations, so
//     its ratio is reported but not gated — see EXPERIMENTS.md),
//   * no lost revocations in either run (after flush_all, frees == revoked
//     spans),
//   * the t8 server regression gate (ROADMAP item 1): tuned pairs/sec must
//     stay within 10% of seed AND tuned munmap must be < 0.5x seed munmap —
//     the MAP_FIXED recycle cache is what buys the second half,
//   * a dangling read still traps, a cross-thread double free still raises,
//   * a remotely-freed object's dangling read traps after the drain.
//
// --backends: emits a machine-readable revocation x threads baseline document
// (BENCH_baseline.json) on stdout: the server workload at 1/4/8 threads under
// immediate revocation (the tuned shape with protect_batch = 0), plus the
// seed and tuned (batched) configurations the smoke gate is calibrated
// against. Per row: wall seconds, pairs/sec, and the split syscall counters
// (mmap/munmap/mprotect), so "batching cuts mprotect" can be checked against
// whether throughput moved.
//
// --t8probe SLOTS BATCH RECYCLE_CAP SHARDS_PER_THREAD: one 8-thread server
// row in a hand-picked shape (magazine_slots, protect_batch,
// window_recycle_cap; shards_per_thread 0 = one shard in total).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/degrade.h"
#include "core/fault_manager.h"
#include "core/sharded_heap.h"
#include "vm/phys_arena.h"
#include "vm/vm_stats.h"

namespace {

using dpg::core::GuardConfig;
using dpg::core::ShardedHeap;

struct BenchConfig {
  const char* name;
  std::size_t shards_per_thread;  // 0 = always one shard total
  GuardConfig guard;
};

BenchConfig seed_config() {
  return BenchConfig{"seed", 0, GuardConfig{}};
}

BenchConfig tuned_config() {
  GuardConfig g;
  g.magazine_slots = 256;
  g.protect_batch = 256;
  // MAP_FIXED VA recycling (DESIGN.md §16): park released shadow spans on the
  // shard and re-alias over them instead of round-tripping the shared
  // freelist, whose trims are the munmap storm ROADMAP item 1 measured.
  // 2048 runs absorbs a full magazine generation's worth of slot fragments
  // per shard (256 slots shed as ~128 discontiguous spans while its live
  // objects drain), measured as the point where the t8 server run's munmap
  // count reaches literal zero.
  g.window_recycle_cap = 2048;
  return BenchConfig{"tuned", 1, g};
}

// Tuned shape with one mprotect per free.
BenchConfig immediate_config() {
  BenchConfig c = tuned_config();
  c.name = "immediate";
  c.guard.protect_batch = 0;
  return c;
}

// xorshift64* — deterministic per-thread sizes, no libc rand contention.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

constexpr std::size_t kSizes[] = {4096, 8192};

// SPSC ring for the server workload's cross-thread hand-off.
struct alignas(64) Ring {
  static constexpr std::size_t kCap = 1024;
  std::atomic<std::size_t> head{0};  // consumer position
  std::atomic<std::size_t> tail{0};  // producer position
  void* slots[kCap] = {};

  bool push(void* p) {
    const std::size_t t = tail.load(std::memory_order_relaxed);
    if (t - head.load(std::memory_order_acquire) == kCap) return false;
    slots[t % kCap] = p;
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
  void* pop() {
    const std::size_t h = head.load(std::memory_order_relaxed);
    if (h == tail.load(std::memory_order_acquire)) return nullptr;
    void* p = slots[h % kCap];
    head.store(h + 1, std::memory_order_release);
    return p;
  }
};

// Point-in-time snapshot of the process-wide syscall counters; rows report
// the delta across their run, split per call so a row shows where the
// syscalls went.
struct SysSnap {
  std::uint64_t mmap = 0;
  std::uint64_t munmap = 0;
  std::uint64_t mprotect = 0;

  static SysSnap now() {
    const auto& c = dpg::vm::syscall_counters();
    SysSnap s;
    s.mmap = c.mmap.load(std::memory_order_relaxed);
    s.munmap = c.munmap.load(std::memory_order_relaxed);
    s.mprotect = c.mprotect.load(std::memory_order_relaxed);
    return s;
  }
  SysSnap operator-(const SysSnap& o) const {
    return SysSnap{mmap - o.mmap, munmap - o.munmap, mprotect - o.mprotect};
  }
};

struct RunResult {
  double seconds = 0;
  std::uint64_t pairs = 0;
  std::uint64_t mm_syscalls = 0;  // mmap + mprotect during the run
  SysSnap sys;                    // per-call split of the same window
  double p99_us = 0;
  dpg::core::GuardStats stats;
};

RunResult run_workload(const BenchConfig& cfg, unsigned threads,
                       bool server_mode, std::uint64_t pairs_per_thread) {
  dpg::vm::PhysArena arena;
  // Per-run governor: the process-wide ladder is one-way-ish (hysteresis),
  // so sharing it across rows would let one row's degradation silently turn
  // later rows into unguarded no-ops. Also cap the freed-VA hold — unlimited
  // PROT_NONE spans accumulate VMAs until the kernel refuses mprotect, which
  // measures the governor, not the guard path.
  dpg::core::DegradationGovernor gov;
  GuardConfig guard = cfg.guard;
  guard.governor = &gov;
  guard.freed_va_budget = std::size_t{64} << 20;
  const std::size_t shards =
      cfg.shards_per_thread == 0 ? 1 : cfg.shards_per_thread * threads;
  ShardedHeap heap(arena, guard, shards);

  std::vector<Ring> rings(threads);
  std::vector<std::vector<double>> samples(threads);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};

  const SysSnap sys_before = SysSnap::now();
  const auto wall0 = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      dpg::core::FaultManager::ensure_altstack();
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (t + 1);
      auto& my_samples = samples[t];
      my_samples.reserve(pairs_per_thread / 64 + 1);
      Ring& outbox = rings[(t + 1) % threads];
      Ring& inbox = rings[t];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < pairs_per_thread; ++i) {
        const bool sampled = (i & 63) == 0;
        const auto s0 = sampled ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
        const std::size_t size = kSizes[next_rand(rng) % std::size(kSizes)];
        void* p = heap.malloc(size);
        if (p == nullptr) break;
        std::memset(p, static_cast<int>(i), size < 128 ? size : 128);
        if (server_mode && threads > 1 && (i & 3) == 0) {
          if (!outbox.push(p)) heap.free(p);  // inbox full: free locally
        } else {
          heap.free(p);
        }
        if (sampled) {
          const auto s1 = std::chrono::steady_clock::now();
          my_samples.push_back(
              std::chrono::duration<double, std::micro>(s1 - s0).count());
        }
        if (server_mode) {
          while (void* q = inbox.pop()) heap.free(q);  // cross-shard frees
        }
      }
      // Drain whatever is still in flight for this thread's inbox.
      if (server_mode) {
        while (void* q = inbox.pop()) heap.free(q);
      }
    });
  }
  while (ready.load() != threads) {
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  // Late producers can leave entries in a ring after its consumer exits.
  for (auto& r : rings) {
    while (void* q = r.pop()) heap.free(q);
  }
  heap.flush_all();

  const auto wall1 = std::chrono::steady_clock::now();
  RunResult res;
  res.seconds = std::chrono::duration<double>(wall1 - wall0).count();
  res.pairs = pairs_per_thread * threads;
  res.sys = SysSnap::now() - sys_before;
  res.mm_syscalls = res.sys.mmap + res.sys.mprotect;
  res.stats = heap.stats();
  std::vector<double> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    res.p99_us = all[std::min(all.size() - 1,
                              static_cast<std::size_t>(all.size() * 0.99))];
  }
  return res;
}

void print_row(const char* workload, unsigned threads, const BenchConfig& cfg,
               const RunResult& r) {
  const double pairs_per_sec = r.pairs / r.seconds;
  const double sys_per_pair =
      static_cast<double>(r.mm_syscalls) / static_cast<double>(r.pairs);
  std::printf(
      "%-8s %2u thr  %-8s  %10.0f pairs/s  %6.3f sys/pair  p99 %7.2f us  "
      "(magazine hits %llu/%llu maps, batches %llu, remote %llu, "
      "mprotect %llu, munmap %llu, recycled %llu, "
      "reused %llu, fixed-recycle %llu)\n",
      workload, threads, cfg.name, pairs_per_sec, sys_per_pair, r.p99_us,
      static_cast<unsigned long long>(r.stats.magazine_hits),
      static_cast<unsigned long long>(r.stats.magazine_maps),
      static_cast<unsigned long long>(r.stats.revoke_batches),
      static_cast<unsigned long long>(r.stats.remote_frees),
      static_cast<unsigned long long>(r.sys.mprotect),
      static_cast<unsigned long long>(r.sys.munmap),
      static_cast<unsigned long long>(r.stats.magazine_slots_recycled),
      static_cast<unsigned long long>(r.stats.shadow_pages_reused),
      static_cast<unsigned long long>(r.stats.window_recycle_hits));
  dpg::bench::Sample sample;
  sample.seconds = r.seconds;
  sample.checksum = r.pairs;
  sample.syscalls = r.mm_syscalls;
  char name[64];
  std::snprintf(name, sizeof name, "mt_%s_t%u", workload, threads);
  dpg::bench::maybe_export_sample(name, cfg.name,
                                  static_cast<double>(r.pairs), sample);
}

// --- revocation x threads baseline (--backends) ----------------------------

void json_row(std::FILE* f, const char* workload, unsigned threads,
              const char* config, const RunResult& r, bool last) {
  std::fprintf(
      f,
      "    {\"workload\":\"%s\",\"threads\":%u,\"config\":\"%s\","
      "\"seconds\":%.6f,\"pairs\":%llu,\"pairs_per_sec\":%.0f,"
      "\"mmap\":%llu,\"munmap\":%llu,\"mprotect\":%llu,"
      "\"revoke_batches\":%llu,\"magazine_hits\":%llu,"
      "\"window_recycle_hits\":%llu,\"p99_us\":%.2f}%s\n",
      workload, threads, config, r.seconds,
      static_cast<unsigned long long>(r.pairs), r.pairs / r.seconds,
      static_cast<unsigned long long>(r.sys.mmap),
      static_cast<unsigned long long>(r.sys.munmap),
      static_cast<unsigned long long>(r.sys.mprotect),
      static_cast<unsigned long long>(r.stats.revoke_batches),
      static_cast<unsigned long long>(r.stats.magazine_hits),
      static_cast<unsigned long long>(r.stats.window_recycle_hits), r.p99_us,
      last ? "" : ",");
}

// Emits the BENCH_baseline.json document on stdout: immediate, seed and
// tuned at 1/4/8 threads. Progress goes to stderr so
// `bench_mt --backends > file` is clean.
int backends() {
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      dpg::obs::env_long("DPG_BENCH_MT_PAIRS", 20000, 100, 10'000'000));

  std::printf("{\n");
  std::printf("  \"type\": \"dpg_revocation_baseline\",\n");
  std::printf("  \"schema\": 2,\n");
  std::printf("  \"workload\": \"server\",\n");
  std::printf("  \"pairs_per_thread\": %llu,\n",
              static_cast<unsigned long long>(pairs));
  std::printf("  \"rows\": [\n");

  const BenchConfig configs[] = {immediate_config(), seed_config(),
                                 tuned_config()};
  const unsigned thread_counts[] = {1u, 4u, 8u};
  std::size_t left = std::size(configs) * std::size(thread_counts);
  for (unsigned t : thread_counts) {
    for (const BenchConfig& c : configs) {
      std::fprintf(stderr, "backends: %s t%u...\n", c.name, t);
      const RunResult r = run_workload(c, t, true, pairs);
      json_row(stdout, "server", t, c.name, r, --left == 0);
    }
  }
  std::printf("  ]\n}\n");
  return 0;
}

// --- smoke-mode correctness probes -----------------------------------------

int fail(const char* what) {
  std::fprintf(stderr, "perf-smoke FAILED: %s\n", what);
  return 1;
}

int smoke() {
  const unsigned threads = 2;
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      dpg::obs::env_long("DPG_BENCH_MT_PAIRS", 30000, 100, 10'000'000));
  const BenchConfig cfg = tuned_config();

  // Throughput + syscall amortization on the tuned path.
  const RunResult churn = run_workload(cfg, threads, false, pairs);
  print_row("churn", threads, cfg, churn);
  const RunResult server = run_workload(cfg, threads, true, pairs);
  print_row("server", threads, cfg, server);

  // Amortization gate on the pure pair workload. (The server workload keeps
  // objects live in the rings, which scatters frees across magazine
  // generations and fragments the coalesced runs — its numbers are reported
  // in EXPERIMENTS.md but not gated here.)
  const double churn_sys_per_pair =
      static_cast<double>(churn.mm_syscalls) /
      static_cast<double>(churn.pairs);
  if (churn_sys_per_pair >= 0.5) {
    return fail("amortized syscalls/pair >= 0.5 on churn");
  }
  for (const RunResult* r : {&churn, &server}) {
    // No lost revocations: after flush_all every free must have reached
    // PROT_NONE (nothing pending, nothing silently dropped). Quarantined and
    // degraded frees would break the equality, so prove there were none.
    if (r->stats.guard_failures != 0) return fail("guard failures in run");
    if (r->stats.degraded_allocs != 0) return fail("degraded allocs in run");
    if (r->stats.frees != r->stats.revoked_spans) {
      std::fprintf(stderr, "frees=%llu revoked=%llu\n",
                   static_cast<unsigned long long>(r->stats.frees),
                   static_cast<unsigned long long>(r->stats.revoked_spans));
      return fail("lost revocations (frees != revoked spans)");
    }
  }

  // t8 server regression gate (ROADMAP item 1): the tuned configuration used
  // to trade throughput for syscalls at 8 threads (1.71 s vs the seed's
  // 1.20 s, with 167k munmaps to the seed's 73k — the shared-freelist trim
  // storm). The MAP_FIXED recycle cache starves that storm: parked slot
  // spans reassemble into window runs instead of overflowing the freelist.
  // Gated three ways, sized for noisy shared CI machines (same-config runs
  // here swing +-20%, see EXPERIMENTS.md):
  //   1. absolute storm ceiling — tuned munmap must stay under 2% of pairs
  //      (pre-recycle it was 35-47%; with the cache it measures literal 0),
  //   2. comparative — when the seed run itself storms (>=1000 munmaps),
  //      tuned must stay under half of it,
  //   3. throughput floor — tuned >= 0.6x seed pairs/sec (the regression
  //      this item opened at was ~0.70x on a quiet machine; 0.6 catches a
  //      collapse without flaking on timing noise).
  const std::uint64_t t8_pairs = pairs / 2 < 100 ? 100 : pairs / 2;
  const BenchConfig seed8 = seed_config();
  const BenchConfig tuned8 = tuned_config();
  const RunResult s8 = run_workload(seed8, 8, true, t8_pairs);
  print_row("server", 8, seed8, s8);
  const RunResult u8 = run_workload(tuned8, 8, true, t8_pairs);
  print_row("server", 8, tuned8, u8);
  if (u8.sys.munmap * 50 >= u8.pairs) {
    std::fprintf(stderr, "t8 server: tuned munmap %llu over %llu pairs\n",
                 static_cast<unsigned long long>(u8.sys.munmap),
                 static_cast<unsigned long long>(u8.pairs));
    return fail("t8 server tuned munmap storm (>= 2% of pairs)");
  }
  if (s8.sys.munmap >= 1000 && u8.sys.munmap * 2 >= s8.sys.munmap) {
    std::fprintf(stderr, "t8 server: tuned munmap %llu vs seed %llu\n",
                 static_cast<unsigned long long>(u8.sys.munmap),
                 static_cast<unsigned long long>(s8.sys.munmap));
    return fail("t8 server tuned munmap not under 0.5x seed");
  }
  const double seed_pps = static_cast<double>(s8.pairs) / s8.seconds;
  const double tuned_pps = static_cast<double>(u8.pairs) / u8.seconds;
  if (tuned_pps < 0.6 * seed_pps) {
    std::fprintf(stderr, "t8 server: tuned %.0f pairs/s vs seed %.0f\n",
                 tuned_pps, seed_pps);
    return fail("t8 server tuned throughput below 0.6x seed");
  }
  for (const RunResult* r : {&s8, &u8}) {
    if (r->stats.guard_failures != 0) return fail("guard failures in t8 run");
    if (r->stats.frees != r->stats.revoked_spans) {
      return fail("lost revocations in t8 run");
    }
  }

  // Detection still works in the tuned configuration.
  dpg::vm::PhysArena arena;
  dpg::core::DegradationGovernor probe_gov;
  GuardConfig probe_cfg = cfg.guard;
  probe_cfg.governor = &probe_gov;
  ShardedHeap heap(arena, probe_cfg, 2);

  // (a) dangling read after a same-thread free + flush.
  char* p = static_cast<char*>(heap.malloc(128));
  p[0] = 'x';
  heap.free(p);
  heap.flush_all();
  auto rep = dpg::core::catch_dangling([&] {
    volatile char c = *p;
    (void)c;
  });
  if (!rep.has_value()) return fail("dangling read not trapped");

  // (b) cross-thread free: A mallocs, B frees; after the drain the span is
  // revoked and a dangling read traps with the object attributed correctly.
  char* q = static_cast<char*>(heap.malloc(256));
  std::thread freer([&] { heap.free(q, /*site=*/77); });
  freer.join();
  heap.flush_all();
  rep = dpg::core::catch_dangling([&] {
    volatile char c = *q;
    (void)c;
  });
  if (!rep.has_value()) return fail("cross-thread freed read not trapped");
  if (rep->object_base != dpg::vm::addr(q)) {
    return fail("cross-thread report attributes wrong object");
  }

  // (c) double free of a remotely-freed object raises even while the
  // revocation may still be queued (the record CAS, not the page state,
  // detects it).
  char* d = static_cast<char*>(heap.malloc(64));
  std::thread freer2([&] { heap.free(d); });
  freer2.join();
  rep = dpg::core::catch_dangling([&] { heap.free(d); });
  if (!rep.has_value()) return fail("double free after remote free missed");
  if (rep->kind != dpg::core::AccessKind::kFree) {
    return fail("double free misclassified");
  }

  std::printf("perf-smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return smoke();
  if (argc > 1 && std::strcmp(argv[1], "--backends") == 0) return backends();
  if (argc > 5 && std::strcmp(argv[1], "--t8probe") == 0) {
    GuardConfig g;
    g.magazine_slots = static_cast<std::size_t>(std::atol(argv[2]));
    g.protect_batch = static_cast<std::size_t>(std::atol(argv[3]));
    g.window_recycle_cap = static_cast<std::size_t>(std::atol(argv[4]));
    BenchConfig c{"probe", static_cast<std::size_t>(std::atol(argv[5])), g};
    const RunResult r = run_workload(c, 8, true, 15000);
    print_row("server", 8, c, r);
    return 0;
  }

  const double scale = dpg::bench::env_scale();
  const std::uint64_t pairs = static_cast<std::uint64_t>(
      20000 * scale < 100 ? 100 : 20000 * scale);
  dpg::bench::print_header(
      "bench_mt — thread-sharded engines, magazines, batched revocation",
      "pairs/sec and amortized (mmap+mprotect)/pair; see EXPERIMENTS.md");
  for (const char* workload : {"churn", "server"}) {
    const bool server_mode = std::strcmp(workload, "server") == 0;
    for (unsigned threads : {1u, 4u, 8u}) {
      for (const BenchConfig& cfg : {seed_config(), tuned_config()}) {
        const RunResult r = run_workload(cfg, threads, server_mode, pairs);
        print_row(workload, threads, cfg, r);
      }
    }
  }
  return 0;
}
