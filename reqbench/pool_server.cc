// rb_pool — the per-connection pool workloads, served through the
// GuardedPolicy facade (the paper's pools with VA reuse) or, for the native
// twin, through NativePolicy (plain malloc/free). Each request is one
// connection: a Policy::Scope is its pool (poolinit .. pooldestroy).
//
//   pool_conn_heavy  ~40 allocations per connection: 32-40 small header
//                    objects plus 1-4 page-sized buffers. About half are
//                    freed explicitly, the rest left to pooldestroy; little
//                    access work, so allocation, revocation and pooldestroy
//                    dominate.
//   pool_conn_light  1-2 allocations per connection (a 16 KiB buffer and,
//                    for half the connections, a connection record), with
//                    64 KiB-1 MiB of a static file streamed through the
//                    buffer: the ghttpd shape, where per-connection fixed
//                    cost and first-touch faults decide the overhead.
//
// NativePolicy has no pools, so the native twin frees explicitly what the
// guarded run leaves to pooldestroy, inside the same "pool.destroy" span.
#include <memory>
#include <optional>
#include <type_traits>

#include "baseline/policies.h"
#include "common.h"
#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "obs/metrics.h"

namespace {

using dpg::baseline::GuardedPolicy;
using dpg::baseline::NativePolicy;
using rb::Rng;
using rb::SpanLog;
using rb::Timed;

enum SpanName : std::uint32_t { kRequest, kInit, kAlloc, kFree, kDestroy, kStream };
const std::vector<const char*> kSpanNames = {
    "request", "pool.init", "pool.alloc", "pool.free", "pool.destroy", "stream"};

constexpr std::size_t kBufBytes = 16 << 10;
constexpr std::size_t kFileBytes = 2 << 20;

template <typename P>
char* alloc(SpanLog& s, std::size_t n) {
  Timed t(s, kAlloc);
  try {
    return rb::opaque(P::template alloc_array<char>(n));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

template <typename P>
void dispose(SpanLog& s, char* p) {
  Timed t(s, kFree);
  P::dispose(rb::opaque(p));
}

template <typename P>
class Server {
 public:
  static constexpr bool kPools = std::is_same_v<P, GuardedPolicy>;

  Server(const rb::Options& o, unsigned workers)
      : seed_(o.seed), heavy_(o.workload == "pool_conn_heavy"),
        file_(kFileBytes) {
    Rng r(rb::combine(rb::mix64(o.seed), 0xF11E));
    for (std::size_t i = 0; i < kFileBytes; i += 8) {
      const std::uint64_t v = r.next();
      std::memcpy(file_.data() + i, &v, 8);
    }
    if constexpr (kPools) (void)GuardedPolicy::context();  // runtime set-up
    for (unsigned w = 0; w < workers; ++w) {
      owned_.push_back(std::make_unique<rb::WorkerLog>());
      logs_.push_back(owned_.back().get());
    }
    totals_.resize(workers);
  }

  std::vector<rb::WorkerLog*>& logs() { return logs_; }

  dpg::core::GuardStats pool_stats() const {
    dpg::core::GuardStats s;
    for (const dpg::core::GuardStats& t : totals_) s += t;
    return s;
  }

  std::uint64_t serve(unsigned wid, std::uint64_t k, rb::WorkerLog& log) {
    SpanLog& sl = log.spans;
    Timed root(sl, kRequest);
    Rng r = rb::request_rng(seed_, wid, k);
    std::optional<typename P::Scope> scope;
    {
      Timed t(sl, kInit);
      scope.emplace();
    }
    std::uint64_t h = r.next();
    char* objs[48] = {};
    std::size_t n = 0;
    if (heavy_) {
      h = heavy(r, log, objs, n, h);
    } else {
      h = light(r, log, objs, n, h);
    }
    if constexpr (kPools) {
      if (log.timed) {
        totals_[wid] += dpg::core::PoolScope::current()->pool().stats();
      }
    }
    {
      Timed t(sl, kDestroy);
      if constexpr (!kPools) {
        for (std::size_t i = 0; i < n; ++i) {
          if (objs[i] != nullptr) P::dispose(objs[i]);
        }
      }
      scope.reset();
    }
    return h;
  }

 private:
  // Writes both ends of an object and reads them back through an opaque
  // alias, folding what memory returned into the checksum.
  static std::uint64_t touch(char* p, std::size_t len, std::uint64_t h) {
    p[0] = static_cast<char>(h);
    p[len - 1] = static_cast<char>(h >> 8);
    const auto* q = reinterpret_cast<const unsigned char*>(rb::opaque(p));
    return rb::combine(h, q[0] ^ (std::uint64_t{q[len - 1]} << 8) ^ (len << 16));
  }

  // objs[0..n) receive what the request leaves to pooldestroy.
  std::uint64_t heavy(Rng& r, rb::WorkerLog& log, char** objs, std::size_t& n,
                      std::uint64_t h) {
    const std::size_t headers = 32 + r.below(9);
    const std::size_t buffers = 1 + r.below(4);
    for (std::size_t i = 0; i < headers + buffers; ++i) {
      const std::size_t len = i < headers ? r.size_logu(32, 256) : 4096;
      char* p = alloc<P>(log.spans, len);
      if (p == nullptr) {
        log.null_allocs++;
        continue;
      }
      h = touch(p, len, h);
      if (r.below(2) == 0) {
        dispose<P>(log.spans, p);
      } else {
        objs[n++] = p;
      }
    }
    return h;
  }

  std::uint64_t light(Rng& r, rb::WorkerLog& log, char** objs, std::size_t& n,
                      std::uint64_t h) {
    char* buf = alloc<P>(log.spans, kBufBytes);
    if (buf == nullptr) {
      log.null_allocs++;
      return h;
    }
    if (r.below(2) == 0) {
      char* conn = alloc<P>(log.spans, 128);
      if (conn == nullptr) {
        log.null_allocs++;
      } else {
        h = touch(conn, 128, h);
        objs[n++] = conn;
      }
    }
    const std::size_t len = r.size_logu(64 << 10, 1 << 20);
    const std::size_t off = r.below(kFileBytes - len + 1);
    {
      Timed t(log.spans, kStream);
      for (std::size_t pos = 0; pos < len; pos += kBufBytes) {
        const std::size_t chunk = std::min(kBufBytes, len - pos);
        std::memcpy(buf, file_.data() + off + pos, chunk);
        h = rb::hash_bytes(buf, chunk, h);
      }
    }
    dispose<P>(log.spans, buf);
    return h;
  }

  std::uint64_t seed_;
  bool heavy_;
  std::vector<char> file_;
  std::vector<std::unique_ptr<rb::WorkerLog>> owned_;
  std::vector<rb::WorkerLog*> logs_;
  // Guard counters of every timed connection's pool, per worker.
  std::vector<dpg::core::GuardStats> totals_;
};

// Plants one dangling use through the workload's own allocation path, then
// the public flush, and reports whether catch_dangling saw it. `suppress`
// skips the dangling use, so the probe must count as a miss.
bool probe(int kind, bool suppress) {
  static SpanLog none;
  GuardedPolicy::Scope scope;
  char* p = alloc<GuardedPolicy>(none, 64);
  if (p == nullptr) return false;
  std::memset(p, 0x5e, 64);
  dispose<GuardedPolicy>(none, p);
  GuardedPolicy::active_pool().engine().flush_protections();
  const auto report = dpg::core::catch_dangling([&] {
    if (suppress) {
      // no dangling use
    } else if (kind == 0) {
      volatile char c = rb::opaque(p)[0];
      (void)c;
    } else if (kind == 1) {
      rb::opaque(p)[0] = 'x';
      asm volatile("" ::: "memory");
    } else {
      GuardedPolicy::dispose(rb::opaque(p));
    }
  });
  return report.has_value();
}

// Registered dpguard counters and the mm-syscall latency histograms, in the
// shape of the runtime's own metrics dump.
std::string snapshot() {
  std::string s = "{\"counters\":{";
  char buf[160];
  for (std::size_t i = 0; i < dpg::obs::counter_count(); ++i) {
    const char* name = dpg::obs::counter_name(i);
    if (name == nullptr) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", i ? "," : "", name,
                  static_cast<unsigned long long>(dpg::obs::counter_value_at(i)));
    s += buf;
  }
  s += "},\"histograms\":{";
  using dpg::obs::Hist;
  const Hist hs[] = {Hist::kAllocNs, Hist::kFreeNs, Hist::kMmapNs,
                     Hist::kMprotectNs, Hist::kMunmapNs};
  for (std::size_t i = 0; i < std::size(hs); ++i) {
    const auto& h = dpg::obs::hist(hs[i]);
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"count\":%llu,\"p50\":%llu,\"p99\":%llu}",
                  i ? "," : "", dpg::obs::hist_name(hs[i]),
                  static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(h.percentile(50)),
                  static_cast<unsigned long long>(h.percentile(99)));
    s += buf;
  }
  return s + "}}";
}

template <typename P>
int run(const rb::Options& o) {
  rb::ReplayPlan plan;
  if (!o.replay.empty()) plan = rb::read_sums(o.replay);
  const unsigned workers = o.replay.empty()
                               ? rb::worker_count()
                               : static_cast<unsigned>(plan.workers.size());
  Server<P> server(o, workers);
  if (o.setup_only) {
    std::puts("ready");
    return 0;
  }
  constexpr bool kGuarded = Server<P>::kPools;
  std::optional<rb::HostSampler> sampler;
  if (kGuarded) sampler.emplace();
  rb::Usage u0, u1;
  long maps_end = 0;
  std::string snap0, snap1;
  const rb::TimedPhase phase = rb::run_closed_loop(
      o, server.logs(), o.replay.empty() ? nullptr : &plan,
      [&](unsigned w, std::uint64_t k, rb::WorkerLog& log) {
        return server.serve(w, k, log);
      },
      [&](int which) {
        if (which == 0) {
          if (kGuarded) snap0 = snapshot();
          u0 = rb::Usage::now();
        } else {
          u1 = rb::Usage::now();
          if (kGuarded) snap1 = snapshot();
          maps_end = rb::count_maps();
        }
      });
  const long vma_peak = sampler ? sampler->stop() : 0;

  std::string extra;
  auto& logs = server.logs();
  if constexpr (kGuarded) {
    extra = rb::window_stats(logs, o.seconds, phase, *sampler) +
            rb::run_probes(probe, o);
    const dpg::core::GuardStats s = server.pool_stats();
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        ",\"pool_stats\":{\"allocations\":%llu,\"frees\":%llu,"
        "\"degraded_allocs\":%llu,\"sampled_allocs\":%llu,"
        "\"guards_elided\":%llu,\"guard_failures\":%llu,"
        "\"magazine_hits\":%llu,\"shadow_pages_mapped\":%llu,"
        "\"shadow_pages_reused\":%llu,\"remote_frees\":%llu,"
        "\"protect_calls_saved\":%llu},\"snap_start\":",
        static_cast<unsigned long long>(s.allocations),
        static_cast<unsigned long long>(s.frees),
        static_cast<unsigned long long>(s.degraded_allocs),
        static_cast<unsigned long long>(s.sampled_allocs),
        static_cast<unsigned long long>(s.guards_elided),
        static_cast<unsigned long long>(s.guard_failures),
        static_cast<unsigned long long>(s.magazine_hits),
        static_cast<unsigned long long>(s.shadow_pages_mapped),
        static_cast<unsigned long long>(s.shadow_pages_reused),
        static_cast<unsigned long long>(s.remote_frees),
        static_cast<unsigned long long>(s.protect_calls_saved));
    extra += buf + snap0 + ",\"snap_end\":" + snap1;
  }
  if (o.inject == "corrupt" && logs[0]->sums.size() > 0) {
    logs[0]->sums[logs[0]->sums.size() / 2] ^= 1;
  }
  if (!o.out.empty() && !rb::write_sums(o.out, logs)) {
    std::fprintf(stderr, "rb_pool: cannot write %s\n", o.out.c_str());
    return 2;
  }
  if (o.trace) {
    extra += ",";
    rb::summarize_spans(logs, kSpanNames, o.spans, extra);
  }
  rb::print_result(o, logs, o.replay.empty() ? nullptr : &plan, phase,
                   u1 - u0, vma_peak, maps_end, extra);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const rb::Options o = rb::parse_options(argc, argv);
  if (o.workload != "pool_conn_heavy" && o.workload != "pool_conn_light") {
    std::fprintf(stderr, "rb_pool: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  return o.policy == "guarded" ? run<GuardedPolicy>(o) : run<NativePolicy>(o);
}
