// rb_rpc — the preload_rpc workload: a plain malloc/free/realloc request
// server that knows nothing about dpguard. reqbench/run.py runs it natively
// (the twin) and under libdpg_preload.so at the shipped defaults.
//
// Each request makes about 20 allocations of 32 B to 16 KiB: a request
// buffer, 14-18 temporaries (one of them realloc'd), one replacement entry
// for the worker's long-lived cache and a response. One response in four is
// handed to the next worker, which verifies and frees it, so frees cross
// threads. The cache keeps a population of long-lived objects beside the
// short-lived ones, so freed-but-guarded spans pile up as in a real server.
//
// In a guarded run, --snapshots raises SIGUSR1 at the start and end of the
// timed phase; the preloaded runtime answers with a metrics dump (its
// documented operator hook), which run.py diffs for the per-layer metrics.
#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <memory>
#include <mutex>
#include <optional>

#include "common.h"

namespace {

using rb::Rng;
using rb::SpanLog;
using rb::Timed;

constexpr std::size_t kCacheEntries = 256;
constexpr std::size_t kInboxCap = 1024;
constexpr std::size_t kMinObj = 32, kMaxObj = 16384;

enum SpanName : std::uint32_t { kRequest, kMalloc, kFree, kRealloc };
const std::vector<const char*> kSpanNames = {
    "request", "interpose.malloc", "interpose.free", "interpose.realloc"};

char* alloc(SpanLog& s, std::size_t n) {
  Timed t(s, kMalloc);
  return rb::opaque(static_cast<char*>(std::malloc(n)));
}
void release(SpanLog& s, void* p) {
  Timed t(s, kFree);
  std::free(rb::opaque(p));
}
char* resize(SpanLog& s, char* p, std::size_t n) {
  Timed t(s, kRealloc);
  return rb::opaque(static_cast<char*>(std::realloc(p, n)));
}

void fill(char* p, std::size_t n, std::uint64_t v) {
  std::memset(p, static_cast<int>(v & 0xff), n);
  if (n >= sizeof v) std::memcpy(p, &v, sizeof v);
}

// Response layout: header, then `len` payload bytes.
struct Response {
  std::uint64_t sum;
  std::size_t len;
  char* payload() { return reinterpret_cast<char*>(this + 1); }
};

struct Inbox {
  std::mutex mu;
  Response* items[kInboxCap] = {};
  std::size_t count = 0;
};

struct Worker {
  unsigned id = 0;
  rb::WorkerLog log;
  char* cache[kCacheEntries] = {};
  std::size_t cache_len[kCacheEntries] = {};
  Inbox inbox;
};

class Server {
 public:
  Server(std::uint64_t seed, unsigned workers) : seed_(seed) {
    for (unsigned w = 0; w < workers; ++w) {
      auto& wk = workers_.emplace_back(std::make_unique<Worker>());
      wk->id = w;
      Rng r(rb::combine(rb::mix64(seed), 0xCAC4E000u + w));
      for (std::size_t i = 0; i < kCacheEntries; ++i) {
        wk->cache_len[i] = r.size_logu(kMinObj, kMaxObj);
        wk->cache[i] = alloc(wk->log.spans, wk->cache_len[i]);
        if (wk->cache[i] == nullptr) {
          std::fprintf(stderr, "rb_rpc: cache allocation failed\n");
          std::exit(2);
        }
        fill(wk->cache[i], wk->cache_len[i], r.next());
      }
      logs_.push_back(&wk->log);
    }
  }

  std::vector<rb::WorkerLog*>& logs() { return logs_; }

  std::uint64_t serve(unsigned wid, std::uint64_t k) {
    Worker& w = *workers_[wid];
    rb::WorkerLog& log = w.log;
    SpanLog& sl = log.spans;
    Timed root(sl, kRequest);
    drain(w);

    Rng r = rb::request_rng(seed_, wid, k);
    std::uint64_t h = r.next();
    const std::size_t req_len = r.size_logu(kMinObj, kMaxObj);
    char* req = alloc(sl, req_len);
    if (req == nullptr) {
      log.null_allocs++;
      return 0;
    }
    fill(req, req_len, h);
    h = rb::combine(h, rb::digest(req, req_len));

    constexpr unsigned kMaxTemps = 18;
    char* tmp[kMaxTemps] = {};
    std::size_t len[kMaxTemps] = {};
    const unsigned n = 14 + static_cast<unsigned>(r.below(5));
    for (unsigned i = 0; i < n; ++i) {
      len[i] = r.size_logu(kMinObj, kMaxObj);
      tmp[i] = alloc(sl, len[i]);
      if (tmp[i] == nullptr) {
        log.null_allocs++;
        continue;
      }
      fill(tmp[i], len[i], rb::combine(h, i));
      h = rb::combine(h, rb::digest(tmp[i], len[i]));
    }
    const unsigned j = static_cast<unsigned>(r.below(n));
    const std::size_t new_len = r.size_logu(kMinObj, kMaxObj);
    if (tmp[j] != nullptr) {
      char* p = resize(sl, tmp[j], new_len);
      if (p == nullptr) {
        log.null_allocs++;
      } else {
        h = rb::combine(h, rb::digest(p, std::min(len[j], new_len)));
        tmp[j] = p;
      }
    }
    const unsigned start = static_cast<unsigned>(r.below(n));
    for (unsigned i = 0; i < n; ++i) {
      char* p = tmp[(start + i) % n];
      if (p != nullptr) release(sl, p);
    }

    // Replace one long-lived cache entry.
    const std::size_t idx = r.below(kCacheEntries);
    h = rb::combine(h, rb::digest(w.cache[idx], w.cache_len[idx]));
    const std::size_t entry_len = r.size_logu(kMinObj, kMaxObj);
    char* entry = alloc(sl, entry_len);
    if (entry == nullptr) {
      log.null_allocs++;
    } else {
      fill(entry, entry_len, h);
      release(sl, w.cache[idx]);
      w.cache[idx] = entry;
      w.cache_len[idx] = entry_len;
    }

    const std::size_t resp_len = r.size_logu(64, 4096);
    auto* resp = reinterpret_cast<Response*>(
        alloc(sl, sizeof(Response) + resp_len));
    std::uint64_t sum = h;
    if (resp == nullptr) {
      log.null_allocs++;
    } else {
      resp->len = resp_len;
      fill(resp->payload(), resp_len, h);
      resp->sum = rb::digest(resp->payload(), resp_len);
      sum = rb::combine(h, resp->sum);
      if (r.below(4) == 0) {
        hand_off(*workers_[(wid + 1) % workers_.size()], resp, log);
      } else {
        consume(resp, log);
      }
    }
    release(sl, req);
    return sum;
  }

  // Frees every object still held; called once the workers have stopped.
  void shutdown() {
    for (auto& w : workers_) {
      drain(*w);
      for (std::size_t i = 0; i < kCacheEntries; ++i) {
        release(w->log.spans, w->cache[i]);
        w->cache[i] = nullptr;
      }
    }
  }

 private:
  void consume(Response* resp, rb::WorkerLog& log) {
    if (rb::digest(resp->payload(), resp->len) != resp->sum) log.bad_handoffs++;
    release(log.spans, resp);
  }
  void hand_off(Worker& to, Response* resp, rb::WorkerLog& log) {
    {
      std::lock_guard<std::mutex> lock(to.inbox.mu);
      if (to.inbox.count < kInboxCap) {
        to.inbox.items[to.inbox.count++] = resp;
        return;
      }
    }
    consume(resp, log);  // inbox full: the producer answers it itself
  }
  void drain(Worker& w) {
    Response* items[kInboxCap];
    std::size_t count = 0;
    {
      std::lock_guard<std::mutex> lock(w.inbox.mu);
      count = w.inbox.count;
      std::memcpy(items, w.inbox.items, count * sizeof(Response*));
      w.inbox.count = 0;
    }
    for (std::size_t i = 0; i < count; ++i) consume(items[i], w.log);
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<rb::WorkerLog*> logs_;
};

// Plants one dangling use in a forked child through the workload's own
// malloc/free path. Detected means the child died by SIGABRT (exit 134), as
// the guard's report path ends. `suppress` skips the dangling use, so the
// probe must count as a miss. The child frees everything it allocates: the
// preloaded arena is a MAP_SHARED memfd, so a block a child took and kept
// would overwrite the free-list link the parent stores in it.
bool probe(int kind, bool suppress) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    alarm(20);
    static SpanLog none;
    char* p = alloc(none, 64);
    fill(p, 64, 0x5eed);
    release(none, p);
    if (suppress) {
      // no dangling use
    } else if (kind == 0) {
      volatile char c = rb::opaque(p)[0];  // dangling read
      (void)c;
    } else if (kind == 1) {
      rb::opaque(p)[0] = 'x';  // dangling write
      asm volatile("" ::: "memory");
    } else {
      release(none, p);  // double free
    }
    _exit(10 + kind);
  }
  int st = 0;
  while (waitpid(pid, &st, 0) < 0 && errno == EINTR) {
  }
  const bool detected = (WIFSIGNALED(st) && WTERMSIG(st) == SIGABRT) ||
                        (WIFEXITED(st) && WEXITSTATUS(st) == 134);
  if (!detected) {
    std::fprintf(stderr, "rb_rpc: probe %d missed (wait status %#x)\n", kind,
                 st);
  }
  return detected;
}

}  // namespace

int main(int argc, char** argv) {
  const rb::Options o = rb::parse_options(argc, argv);
  if (o.workload != "preload_rpc") {
    std::fprintf(stderr, "rb_rpc: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  rb::ReplayPlan plan;
  if (!o.replay.empty()) plan = rb::read_sums(o.replay);
  const unsigned workers = o.replay.empty()
                               ? rb::worker_count()
                               : static_cast<unsigned>(plan.workers.size());
  Server server(o.seed, workers);
  if (o.setup_only) {
    std::puts("ready");
    return 0;
  }

  const bool guarded = o.policy == "guarded";
  std::optional<rb::HostSampler> sampler;
  if (guarded) sampler.emplace();
  rb::Usage u0, u1;
  long maps_end = 0;
  const rb::TimedPhase phase = rb::run_closed_loop(
      o, server.logs(), o.replay.empty() ? nullptr : &plan,
      [&](unsigned w, std::uint64_t k, rb::WorkerLog&) {
        return server.serve(w, k);
      },
      [&](int which) {
        if (o.snapshots) raise(SIGUSR1);
        if (which == 0) {
          u0 = rb::Usage::now();
        } else {
          u1 = rb::Usage::now();
          maps_end = rb::count_maps();
        }
      });
  const long vma_peak = sampler ? sampler->stop() : 0;
  server.shutdown();

  auto& logs = server.logs();
  std::string extra;
  if (guarded) {
    extra = rb::window_stats(logs, o.seconds, phase, *sampler) +
            rb::run_probes(probe, o);
  }
  if (o.inject == "corrupt" && logs[0]->sums.size() > 0) {
    logs[0]->sums[logs[0]->sums.size() / 2] ^= 1;
  }
  if (!o.out.empty() && !rb::write_sums(o.out, logs)) {
    std::fprintf(stderr, "rb_rpc: cannot write %s\n", o.out.c_str());
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
