#include "fuzz/harness.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "alloc/heap.h"
#include "core/fault_manager.h"
#include "core/guarded_pool.h"
#include "core/lockandkey.h"
#include "core/sharded_heap.h"
#include "fuzz/oracle.h"
#include "obs/metrics.h"
#include "vm/sys.h"

namespace dpg::fuzz {

namespace {

// Process-lifetime fuzz counters, exported through dpg_obs.
std::atomic<std::uint64_t> g_fuzz_runs{0};
std::atomic<std::uint64_t> g_fuzz_ops{0};
std::atomic<std::uint64_t> g_fuzz_reports{0};
std::atomic<std::uint64_t> g_fuzz_divergences{0};

void register_fuzz_counters() {
  static const bool once = [] {
    obs::register_counter("dpg_fuzz_runs", &g_fuzz_runs);
    obs::register_counter("dpg_fuzz_ops", &g_fuzz_ops);
    obs::register_counter("dpg_fuzz_reports", &g_fuzz_reports);
    obs::register_counter("dpg_fuzz_divergences", &g_fuzz_divergences);
    return true;
  }();
  (void)once;
}

// RAII fault plan: armed after SUT construction (so engine setup syscalls are
// not subject to injection — keeps the injected-failure sequence a pure
// function of the trace), cleared before the final flush/sweep.
class FaultPlanGuard {
 public:
  explicit FaultPlanGuard(const std::string& spec) : armed_(!spec.empty()) {
    if (armed_) vm::sys::set_fault_plan(spec.c_str());
  }
  ~FaultPlanGuard() { disarm(); }
  void disarm() {
    if (armed_) {
      vm::sys::clear_fault_plan();
      armed_ = false;
    }
  }

 private:
  bool armed_;
};

// Token scheduler: N persistent worker lanes; the main thread hands each op
// to its lane and blocks until it completes. Fully serialized (deterministic)
// while keeping thread identity real — shard pinning, remote frees, and
// per-thread signal state all behave as in production.
class LaneCrew {
 public:
  explicit LaneCrew(std::uint32_t lanes) {
    states_.reserve(lanes);
    for (std::uint32_t i = 0; i < lanes; ++i) {
      states_.push_back(std::make_unique<LaneState>());
    }
    for (std::uint32_t i = 0; i < lanes; ++i) {
      threads_.emplace_back([this, i] {
        core::FaultManager::ensure_altstack();
        LaneState& st = *states_[i];
        std::unique_lock lk(st.mu);
        for (;;) {
          st.cv.wait(lk, [&] { return st.job != nullptr || st.quit; });
          if (st.quit) return;
          (*st.job)();
          st.job = nullptr;
          st.done = true;
          st.cv.notify_all();
        }
      });
    }
  }

  ~LaneCrew() {
    for (auto& st : states_) {
      std::lock_guard lk(st->mu);
      st->quit = true;
      st->cv.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  // Blocks until `job` has run to completion on `lane`. The mutex handoff
  // sequences every op's effects before the next op, whatever its lane.
  void run(std::uint32_t lane, const std::function<void()>& job) {
    LaneState& st = *states_[lane];
    std::unique_lock lk(st.mu);
    st.done = false;
    st.job = &job;
    st.cv.notify_all();
    st.cv.wait(lk, [&] { return st.done; });
  }

 private:
  struct LaneState {
    std::mutex mu;
    std::condition_variable cv;
    const std::function<void()>* job = nullptr;
    bool done = false;
    bool quit = false;
  };
  std::vector<std::unique_ptr<LaneState>> states_;
  std::vector<std::thread> threads_;
};

// The system under test, behind one interface for both harness modes.
class Sut {
 public:
  virtual ~Sut() = default;
  virtual void* malloc(std::size_t size, core::SiteId site) = 0;
  virtual void free(void* p, core::SiteId site, std::uint32_t pool) = 0;
  virtual void* realloc(void* p, std::size_t size, core::SiteId site,
                        std::uint32_t pool) = 0;
  virtual void flush() = 0;
  virtual bool revocation_applied(const void* p, std::uint32_t pool) = 0;
  virtual core::GuardMode mode() const = 0;
  // Pool id new allocations land in (always 0 for the heap mode).
  virtual std::uint32_t current_pool() const { return 0; }
  virtual bool pool_create(std::uint32_t) { return false; }
  virtual bool pool_destroy(std::uint32_t) { return false; }
  virtual core::GuardStats stats() = 0;
};

core::GuardConfig guard_config(const FuzzConfig& cfg,
                               core::DegradationGovernor* gov) {
  core::GuardConfig gc;
  gc.protect_batch = cfg.protect_batch;
  gc.magazine_slots = cfg.magazine_slots;
  gc.window_recycle_cap = cfg.recycle_cap;
  gc.freed_va_budget = cfg.va_budget;
  gc.governor = gov;
  return gc;
}

core::GovernorConfig governor_config(const FuzzConfig& cfg) {
  core::GovernorConfig gc;
  // A forced rung must stay forced: disable the recovery ladder, or 4096
  // clean allocations would quietly promote the run back to full guard.
  if (cfg.forced_mode >= 0) gc.recover_after = 0;
  if (cfg.sample_rate != 0) gc.sample_rate = cfg.sample_rate;
  return gc;
}

class HeapSut final : public Sut {
 public:
  explicit HeapSut(const FuzzConfig& cfg)
      : gov_(governor_config(cfg)),
        heap_(arena_, guard_config(cfg, &gov_), cfg.shards) {
    if (cfg.forced_mode >= 0) {
      gov_.force_mode(static_cast<core::GuardMode>(cfg.forced_mode));
    }
  }

  void* malloc(std::size_t size, core::SiteId site) override {
    return heap_.malloc(size, site);
  }
  void free(void* p, core::SiteId site, std::uint32_t) override {
    heap_.free(p, site);
  }
  void* realloc(void* p, std::size_t size, core::SiteId site,
                std::uint32_t) override {
    return heap_.realloc(p, size, site);
  }
  void flush() override { heap_.flush_all(); }
  bool revocation_applied(const void* p, std::uint32_t) override {
    return heap_.revocation_applied(p);
  }
  core::GuardMode mode() const override { return gov_.mode(); }
  core::GuardStats stats() override { return heap_.stats(); }

 private:
  core::DegradationGovernor gov_;
  vm::PhysArena arena_;
  core::ShardedHeap heap_;
};

// Lock-and-key cell: the whole heap runs on the tag lane — the runtime half
// of a forced --scheme=tag A/B run. No shadow engine, no mprotect, no shadow
// VA; detection is the pointer-key-vs-slot-lock comparison at every mediated
// access and at free. Stats come from a local counter block the lane shares.
class TagHeapSut final : public Sut {
 public:
  explicit TagHeapSut(const FuzzConfig& cfg)
      : heap_(source_), lane_(heap_, counters_, cfg.tag_bits) {}

  void* malloc(std::size_t size, core::SiteId site) override {
    return lane_.alloc(size, site);
  }
  void free(void* p, core::SiteId site, std::uint32_t) override {
    lane_.free(p, site);
  }
  void* realloc(void* p, std::size_t size, core::SiteId site,
                std::uint32_t) override {
    // The lane has no in-place growth: realloc is alloc+free, and the free
    // performs the same stale-key check a plain free would. (The harness
    // refills the new object, so no bytes are copied.)
    void* np = lane_.alloc(size, site);
    if (np == nullptr) return nullptr;
    lane_.free(p, site);
    return np;
  }
  void flush() override {}  // no revocation queues on this lane
  bool revocation_applied(const void*, std::uint32_t) override { return true; }
  core::GuardMode mode() const override { return core::GuardMode::kFullGuard; }
  core::GuardStats stats() override { return counters_.snapshot(); }

 private:
  alloc::MmapSource source_;
  alloc::SegregatedHeap heap_;
  core::GuardCounters counters_;
  core::LockAndKeyLane lane_;
};

class PoolSut final : public Sut {
 public:
  explicit PoolSut(const FuzzConfig& cfg) : gov_(governor_config(cfg)) {
    if (cfg.forced_mode >= 0) {
      gov_.force_mode(static_cast<core::GuardMode>(cfg.forced_mode));
    }
    ctx_ = std::make_unique<core::GuardedPoolContext>(guard_config(cfg, &gov_));
    pools_.emplace_back(0u, std::make_unique<core::GuardedPool>(*ctx_));
  }

  ~PoolSut() override {
    // Destroy pools before the context (they hold its arena/freelist), and
    // fold their final stats in so stats() stays meaningful to the end.
    while (!pools_.empty()) destroy_back();
  }

  void* malloc(std::size_t size, core::SiteId site) override {
    return pools_.back().second->alloc(size, site);
  }
  void free(void* p, core::SiteId site, std::uint32_t pool) override {
    find(pool)->free(p, site);
  }
  void* realloc(void* p, std::size_t size, core::SiteId site,
                std::uint32_t pool) override {
    return find(pool)->realloc(p, size, site);
  }
  void flush() override {
    for (auto& [id, pool] : pools_) pool->engine().flush_protections();
  }
  bool revocation_applied(const void* p, std::uint32_t pool) override {
    return find(pool)->engine().revocation_applied(p);
  }
  core::GuardMode mode() const override { return gov_.mode(); }
  std::uint32_t current_pool() const override { return pools_.back().first; }

  bool pool_create(std::uint32_t id) override {
    pools_.emplace_back(id, std::make_unique<core::GuardedPool>(*ctx_));
    return true;
  }
  bool pool_destroy(std::uint32_t id) override {
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      if (pools_[i].first != id) continue;
      pools_[i].second->destroy();
      retired_ += pools_[i].second->stats();
      pools_.erase(pools_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    return false;
  }

  core::GuardStats stats() override {
    core::GuardStats s = retired_;
    for (auto& [id, pool] : pools_) s += pool->stats();
    return s;
  }

 private:
  core::GuardedPool* find(std::uint32_t id) {
    for (auto& [pid, pool] : pools_) {
      if (pid == id) return pool.get();
    }
    return pools_.front().second.get();  // base pool backstop (unreachable)
  }
  void destroy_back() {
    pools_.back().second->destroy();
    retired_ += pools_.back().second->stats();
    pools_.pop_back();
  }

  core::DegradationGovernor gov_;
  std::unique_ptr<core::GuardedPoolContext> ctx_;
  // Creation order; back() is the pool new allocations land in.
  std::vector<std::pair<std::uint32_t, std::unique_ptr<core::GuardedPool>>>
      pools_;
  core::GuardStats retired_;
};

Outcome classify_outcome(const std::optional<core::DanglingReport>& rep) {
  if (!rep.has_value()) return Outcome::kSilent;
  switch (rep->kind) {
    case core::AccessKind::kFree: return Outcome::kReportDoubleFree;
    case core::AccessKind::kInvalidFree: return Outcome::kReportInvalidFree;
    case core::AccessKind::kTagMismatch: return Outcome::kReportTagMismatch;
    default: return Outcome::kTrap;
  }
}

Guardness classify_guard(const void* p, core::GuardMode mode) {
  if (core::LockAndKeyLane::is_tagged(reinterpret_cast<std::uint64_t>(p))) {
    return Guardness::kTagged;
  }
  if (core::ShadowEngine::record_of(p) != nullptr) return Guardness::kGuarded;
  // No registry record: the rung at return tells the rest apart. On the
  // sampled rung an unguarded allocation is ledgered (fast path), and a
  // sampled WINNER was already caught by the record_of check above — the
  // per-allocation sampling decision is introspected, never re-modelled.
  switch (mode) {
    case core::GuardMode::kUnguarded: return Guardness::kPassthrough;
    case core::GuardMode::kSampled: return Guardness::kSampledFast;
    default: return Guardness::kQuarantined;
  }
}

// Strips and key-checks a tag-lane pointer before a raw access; pointers
// from the other lanes pass through untouched. Must run inside
// catch_dangling — a stale key raises.
unsigned char* resolve(void* p) {
  const auto a = reinterpret_cast<std::uint64_t>(p);
  if (core::LockAndKeyLane::is_tagged(a)) {
    return static_cast<unsigned char*>(core::LockAndKeyLane::check_access(a));
  }
  return static_cast<unsigned char*>(p);
}

// Executor-side runtime state per object id.
struct ObjRt {
  void* ptr = nullptr;
  std::uint32_t size = 0;
  std::uint32_t pool = 0;
};

struct ExecResult {
  Outcome outcome = Outcome::kSilent;
  core::DanglingReport report{};
  std::uint8_t value = 0;
  void* new_ptr = nullptr;
};

std::unique_ptr<Sut> make_sut(const FuzzConfig& cfg) {
  if (cfg.tag_lane) return std::make_unique<TagHeapSut>(cfg);
  if (cfg.mode == HarnessMode::kPool) return std::make_unique<PoolSut>(cfg);
  return std::make_unique<HeapSut>(cfg);
}

}  // namespace

RunResult run_trace(const FuzzConfig& cfg, const Trace& trace,
                    std::ostream* log) {
  register_fuzz_counters();
  RunResult res;
  Oracle oracle(cfg);
  std::unordered_map<std::uint32_t, ObjRt> rt;
  std::unordered_set<std::uint32_t> active_pools{0};

  auto diverge = [&](std::size_t idx, const std::string& detail) {
    res.divergences.push_back(Divergence{idx, detail});
  };

  // Bookkeeping for the end-of-run invariant cross-checks.
  std::uint64_t guarded_allocs = 0;
  std::uint64_t degraded_allocs = 0;
  std::uint64_t sampled_allocs = 0;
  std::uint64_t guarded_frees = 0;
  std::uint64_t quarantined_frees = 0;
  std::uint64_t sampled_frees = 0;
  std::uint64_t observed_df = 0;
  std::uint64_t observed_if = 0;
  std::uint64_t tagged_allocs = 0;
  std::uint64_t tagged_frees = 0;
  std::uint64_t observed_tm_free = 0;    // stale tagged frees (engine counter)
  std::uint64_t observed_tm_access = 0;  // stale tagged loads/stores (process)

  const std::uint64_t detections_before =
      core::FaultManager::instance().detections();
  const std::uint64_t access_mm_before =
      core::LockAndKeyLane::access_mismatches();

  {
    std::unique_ptr<Sut> sut = make_sut(cfg);
    FaultPlanGuard plan(cfg.fault_plan);
    const std::uint32_t lanes = std::max<std::uint32_t>(trace.lanes, 1);
    std::unique_ptr<LaneCrew> crew;
    if (lanes > 1) crew = std::make_unique<LaneCrew>(lanes);

    auto execute = [&](std::uint8_t lane, const std::function<void()>& job) {
      if (crew != nullptr) {
        crew->run(lane, job);
      } else {
        job();
      }
    };

    auto note_outcome = [&](const ExecResult& r) {
      if (r.outcome != Outcome::kSilent) {
        ++res.reports;
        if (r.outcome == Outcome::kReportDoubleFree) ++observed_df;
        if (r.outcome == Outcome::kReportInvalidFree) ++observed_if;
      }
    };

    // Precision: a report about a guarded object must name the object.
    auto check_precision = [&](std::size_t idx, const Op& op, const ObjRt& o,
                               const ExecResult& r) {
      if (r.outcome == Outcome::kSilent) return;
      if (r.report.alloc_site != 0 && r.report.alloc_site != op.obj) {
        diverge(idx, std::string(op_name(op.kind)) + " obj " +
                         std::to_string(op.obj) +
                         ": report names alloc site " +
                         std::to_string(r.report.alloc_site));
      }
      if (r.report.object_base != 0 &&
          r.report.object_base != reinterpret_cast<std::uintptr_t>(o.ptr)) {
        diverge(idx, std::string(op_name(op.kind)) + " obj " +
                         std::to_string(op.obj) +
                         ": report names a different object base");
      }
    };

    for (std::size_t idx = 0; idx < trace.ops.size(); ++idx) {
      const Op& op = trace.ops[idx];

      // Structural skips the oracle cannot judge (it has no pool/rt tables):
      // pool ops in heap mode, duplicate ids, inactive pools.
      if (op.kind == OpKind::kPoolCreate || op.kind == OpKind::kPoolDestroy) {
        const bool create = op.kind == OpKind::kPoolCreate;
        const bool valid = cfg.mode == HarnessMode::kPool && op.obj != 0 &&
                           (create ? active_pools.count(op.obj) == 0
                                   : active_pools.count(op.obj) != 0);
        if (!valid) {
          ++res.skipped;
          continue;
        }
        ExecResult r;
        const std::function<void()> job = [&] {
          auto rep = core::catch_dangling([&] {
            if (create) {
              sut->pool_create(op.obj);
            } else {
              sut->pool_destroy(op.obj);
            }
          });
          r.outcome = classify_outcome(rep);
          if (rep.has_value()) r.report = *rep;
        };
        execute(op.thread, job);
        ++res.executed;
        note_outcome(r);
        if (r.outcome != Outcome::kSilent) {
          diverge(idx, std::string(op_name(op.kind)) + " pool " +
                           std::to_string(op.obj) + " reported " +
                           outcome_name(r.outcome));
        }
        if (create) {
          active_pools.insert(op.obj);
        } else {
          active_pools.erase(op.obj);
          oracle.on_pool_destroyed(op.obj);
        }
        continue;
      }
      if ((op.kind == OpKind::kMalloc && rt.count(op.obj) != 0) ||
          (op.kind == OpKind::kRealloc && rt.count(op.obj2) != 0)) {
        ++res.skipped;  // malformed replay: duplicate object id
        continue;
      }

      const Oracle::MObj* model = oracle.find(op.obj);
      // Introspect the SUT only where the prediction depends on it: probes
      // of freed guarded objects (revocation state) and freed tagged objects
      // (key-vs-lock state — false exactly when the stale use will report).
      bool revoked = false;
      bool tag_ok = false;
      if (model != nullptr && model->phase == Phase::kFreed) {
        const ObjRt& o = rt.at(op.obj);
        if (model->guard == Guardness::kGuarded) {
          revoked = sut->revocation_applied(o.ptr, o.pool);
        } else if (model->guard == Guardness::kTagged) {
          tag_ok = core::LockAndKeyLane::tag_matches(
              reinterpret_cast<std::uint64_t>(o.ptr));
        }
      }
      const Prediction pred = oracle.predict(op, revoked, tag_ok);
      if (!pred.execute) {
        ++res.skipped;
        continue;
      }

      // Everything a job dereferences must outlive the execute() call below,
      // so the per-op inputs live here, not inside the switch. `tgt` points
      // into `rt`, whose element references are stable across inserts.
      ExecResult r;
      std::function<void()> job;
      const std::uint8_t expect_fill = model != nullptr ? model->fill : 0;
      const ObjRt* tgt = nullptr;
      if (const auto it = rt.find(op.obj); it != rt.end()) tgt = &it->second;
      std::uint32_t off = 0;
      std::uint8_t byte = 0;  // fill byte the job stores (alloc/write ops)
      bool live_write = false;

      auto finish = [&r](const std::optional<core::DanglingReport>& rep) {
        r.outcome = classify_outcome(rep);
        if (rep.has_value()) r.report = *rep;
      };

      switch (op.kind) {
        case OpKind::kMalloc:
          byte = Oracle::base_fill(op.obj);
          job = [&] {
            finish(core::catch_dangling([&] {
              void* p = sut->malloc(op.size, op.obj);
              r.new_ptr = p;
              if (p != nullptr) std::memset(resolve(p), byte, op.size);
            }));
          };
          break;
        case OpKind::kRead:
        case OpKind::kUafRead:
          off = tgt->size != 0 ? op.offset % tgt->size : 0;
          job = [&] {
            finish(core::catch_dangling([&] {
              r.value = *reinterpret_cast<volatile unsigned char*>(
                  resolve(tgt->ptr) + off);
            }));
          };
          break;
        case OpKind::kWrite:
        case OpKind::kUafWrite:
          off = tgt->size != 0 ? op.offset % tgt->size : 0;
          live_write = model->phase == Phase::kLive;
          // Live write: rotate the whole fill. Freed (in-window/quarantine)
          // write: store the byte already there — exercises the MMU write
          // path without perturbing the stale-value model.
          byte = live_write ? oracle.on_write(op.obj) : model->fill;
          job = [&] {
            finish(core::catch_dangling([&] {
              if (live_write) {
                std::memset(resolve(tgt->ptr), byte, tgt->size);
              } else {
                *reinterpret_cast<volatile unsigned char*>(
                    resolve(tgt->ptr) + off) = byte;
              }
            }));
          };
          break;
        case OpKind::kFree:
        case OpKind::kDoubleFree:
          job = [&] {
            finish(core::catch_dangling(
                [&] { sut->free(tgt->ptr, op.obj, tgt->pool); }));
          };
          break;
        case OpKind::kInvalidFree:
          off = tgt->size > 1 ? 1 + (op.offset % (tgt->size - 1)) : 1;
          job = [&] {
            finish(core::catch_dangling([&] {
              sut->free(static_cast<unsigned char*>(tgt->ptr) + off, op.obj,
                        tgt->pool);
            }));
          };
          break;
        case OpKind::kRealloc:
          byte = Oracle::base_fill(op.obj2);
          job = [&] {
            finish(core::catch_dangling([&] {
              void* np = sut->realloc(tgt->ptr, op.size, op.obj2, tgt->pool);
              r.new_ptr = np;
              if (np != nullptr) std::memset(resolve(np), byte, op.size);
            }));
          };
          break;
        case OpKind::kFlush:
          job = [&] { finish(core::catch_dangling([&] { sut->flush(); })); };
          break;
        default:
          ++res.skipped;
          continue;
      }

      execute(op.thread, job);
      ++res.executed;
      note_outcome(r);
      if (r.outcome == Outcome::kReportTagMismatch) {
        // Free-path mismatches land in the engine counter block; access-path
        // ones in the lane's process-wide counter. Track both for the
        // end-of-run invariants.
        if (op.kind == OpKind::kFree || op.kind == OpKind::kDoubleFree) {
          ++observed_tm_free;
        } else {
          ++observed_tm_access;
        }
      }

      // 1. Outcome must be exactly what the oracle permits.
      if (!pred.permits(r.outcome)) {
        std::ostringstream d;
        d << op_name(op.kind) << " obj " << op.obj << ": expected "
          << pred.why << ", got " << outcome_name(r.outcome);
        diverge(idx, d.str());
      } else {
        // 2. Value exactness for silent reads.
        if (r.outcome == Outcome::kSilent && pred.check_stale &&
            (op.kind == OpKind::kRead || op.kind == OpKind::kUafRead) &&
            r.value != expect_fill) {
          std::ostringstream d;
          d << op_name(op.kind) << " obj " << op.obj << " off " << off
            << ": fill mismatch (got 0x" << std::hex << unsigned{r.value}
            << ", want 0x" << unsigned{expect_fill} << ") — " << pred.why;
          diverge(idx, d.str());
        }
        // 3. Report precision. Tag-lane reports carry no alloc site (the
        // slot header describes the current generation's owner, not the
        // stale pointer's), but the object base must still be the probed
        // pointer. Sampled fast-path double-free reports come from the
        // ledger, which recorded both — they are held to the same bar.
        if (rt.count(op.obj) != 0 && model != nullptr &&
            (model->guard == Guardness::kGuarded ||
             model->guard == Guardness::kTagged ||
             model->guard == Guardness::kSampledFast)) {
          check_precision(idx, op, rt.at(op.obj), r);
        }
      }

      // Advance the model.
      switch (op.kind) {
        case OpKind::kMalloc:
          if (r.outcome == Outcome::kSilent) {
            if (r.new_ptr == nullptr) {
              diverge(idx, "malloc obj " + std::to_string(op.obj) +
                               " returned nullptr (arena exhausted?)");
              break;
            }
            const Guardness g = classify_guard(r.new_ptr, sut->mode());
            const std::uint32_t pool = sut->current_pool();
            if (g == Guardness::kGuarded) {
              ++guarded_allocs;
            } else if (g == Guardness::kTagged) {
              ++tagged_allocs;
            } else if (g == Guardness::kSampledFast) {
              ++sampled_allocs;
            } else {
              ++degraded_allocs;
            }
            oracle.on_alloc(op.obj, op.size, g, pool);
            rt[op.obj] = ObjRt{r.new_ptr, op.size, pool};
          }
          break;
        case OpKind::kFree:
        case OpKind::kDoubleFree:
          if (r.outcome == Outcome::kSilent) {
            if (model->guard == Guardness::kGuarded) {
              ++guarded_frees;  // phase was live: the CAS admitted this free
            } else if (model->guard == Guardness::kQuarantined) {
              ++quarantined_frees;  // live free AND absorbed double free
            } else if (model->guard == Guardness::kSampledFast) {
              ++sampled_frees;  // the ledger admitted this free exactly
            } else if (model->guard == Guardness::kTagged) {
              ++tagged_frees;  // the key matched: the lock advanced
            }
            oracle.on_free(op.obj);
          }
          break;
        case OpKind::kRealloc:
          if (r.outcome == Outcome::kSilent) {
            if (r.new_ptr == nullptr) {
              diverge(idx, "realloc obj " + std::to_string(op.obj) +
                               " returned nullptr");
              break;
            }
            if (model->guard == Guardness::kGuarded) {
              ++guarded_frees;
            } else if (model->guard == Guardness::kQuarantined) {
              ++quarantined_frees;
            } else if (model->guard == Guardness::kSampledFast) {
              ++sampled_frees;
            } else if (model->guard == Guardness::kTagged) {
              ++tagged_frees;
            }
            oracle.on_free(op.obj);
            const Guardness g = classify_guard(r.new_ptr, sut->mode());
            const std::uint32_t pool = rt.at(op.obj).pool;
            if (g == Guardness::kGuarded) {
              ++guarded_allocs;
            } else if (g == Guardness::kTagged) {
              ++tagged_allocs;
            } else if (g == Guardness::kSampledFast) {
              ++sampled_allocs;
            } else {
              ++degraded_allocs;
            }
            oracle.on_alloc(op.obj2, op.size, g, pool);
            rt[op.obj2] = ObjRt{r.new_ptr, op.size, pool};
          }
          break;
        default:
          break;
      }
    }

    // End of trace: disarm injection, apply every queued revocation, then
    // audit the paper's claim object by object.
    plan.disarm();
    sut->flush();

    std::vector<std::uint32_t> ids;
    ids.reserve(oracle.objects().size());
    for (const auto& [id, o] : oracle.objects()) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    constexpr std::size_t kSweep = static_cast<std::size_t>(-1);
    for (const std::uint32_t id : ids) {
      const Oracle::MObj& o = oracle.objects().at(id);
      if (o.phase != Phase::kFreed) continue;
      const ObjRt& ro = rt.at(id);
      if (o.guard == Guardness::kGuarded) {
        // Exactness: with all queues flushed, EVERY dangling use must trap.
        if (!sut->revocation_applied(ro.ptr, ro.pool)) {
          diverge(kSweep, "sweep: freed guarded obj " + std::to_string(id) +
                              " still unrevoked after final flush");
          continue;
        }
        ExecResult r;
        auto rep = core::catch_dangling([&] {
          r.value = *reinterpret_cast<volatile unsigned char*>(ro.ptr);
        });
        r.outcome = classify_outcome(rep);
        if (rep.has_value()) r.report = *rep;
        note_outcome(r);
        if (r.outcome != Outcome::kTrap) {
          diverge(kSweep, "sweep: dangling read of obj " + std::to_string(id) +
                              " did not trap (" + outcome_name(r.outcome) +
                              ")");
        }
      } else if (o.guard == Guardness::kTagged) {
        // Exactness modulo the wrap window: a stale key MUST report; a
        // wrapped key is the documented tag reuse window — the one precision
        // hole this lane concedes, so nothing is asserted there.
        if (core::LockAndKeyLane::tag_matches(
                reinterpret_cast<std::uint64_t>(ro.ptr))) {
          continue;
        }
        ExecResult r;
        auto rep = core::catch_dangling([&] {
          r.value = *reinterpret_cast<volatile unsigned char*>(
              resolve(ro.ptr));
        });
        r.outcome = classify_outcome(rep);
        if (rep.has_value()) r.report = *rep;
        note_outcome(r);
        if (r.outcome == Outcome::kReportTagMismatch) {
          ++observed_tm_access;
        } else {
          diverge(kSweep, "sweep: stale tagged read of obj " +
                              std::to_string(id) + " did not report (" +
                              outcome_name(r.outcome) + ")");
        }
      } else if (o.guard == Guardness::kQuarantined ||
                 o.guard == Guardness::kSampledFast) {
        // Suspension, not falsification: the quarantined block still holds
        // the object's last fill — it was never handed to a new owner. The
        // sampled fast path frees through the same quarantine, so it makes
        // the identical promise.
        ExecResult r;
        auto rep = core::catch_dangling([&] {
          r.value = *reinterpret_cast<volatile unsigned char*>(ro.ptr);
        });
        note_outcome(r);
        if (rep.has_value()) {
          diverge(kSweep, "sweep: quarantined obj " + std::to_string(id) +
                              " read reported instead of staying silent");
        } else if (r.value != o.fill) {
          diverge(kSweep, "sweep: quarantined obj " + std::to_string(id) +
                              " lost its stale fill (reused?)");
        }
      }
    }

    // Engine counters must corroborate the model's ledger exactly.
    const core::GuardStats st = sut->stats();
    auto expect_eq = [&](std::uint64_t got, std::uint64_t want,
                         const char* what) {
      if (got != want) {
        diverge(kSweep, std::string("invariant: ") + what + " = " +
                            std::to_string(got) + ", oracle says " +
                            std::to_string(want));
      }
    };
    expect_eq(st.allocations, guarded_allocs, "stats.allocations");
    expect_eq(st.degraded_allocs, degraded_allocs, "stats.degraded_allocs");
    expect_eq(st.frees, guarded_frees, "stats.frees");
    expect_eq(st.double_frees, observed_df, "stats.double_frees");
    expect_eq(st.invalid_frees, observed_if, "stats.invalid_frees");
    expect_eq(st.quarantined_frees, quarantined_frees,
              "stats.quarantined_frees");
    expect_eq(st.sampled_allocs, sampled_allocs, "stats.sampled_allocs");
    expect_eq(st.sampled_frees, sampled_frees, "stats.sampled_frees");
    expect_eq(st.tagged_allocs, tagged_allocs, "stats.tagged_allocs");
    expect_eq(st.tagged_frees, tagged_frees, "stats.tagged_frees");
    expect_eq(st.tag_mismatches, observed_tm_free, "stats.tag_mismatches");
    expect_eq(core::LockAndKeyLane::access_mismatches() - access_mm_before,
              observed_tm_access, "lane access mismatches");
    if (cfg.fault_plan.empty()) {
      // With no injected mprotect/mmap refusals every admitted free ends as
      // a revoked span once the queues are flushed.
      expect_eq(st.revoked_spans, guarded_frees, "stats.revoked_spans");
      expect_eq(st.guard_failures, 0, "stats.guard_failures");
    } else {
      expect_eq(st.revoked_spans, guarded_frees,
                "stats.revoked_spans (mmap-only plan)");
    }

    const std::uint64_t detections_delta =
        core::FaultManager::instance().detections() - detections_before;
    expect_eq(detections_delta, res.reports, "process detections delta");
  }

  g_fuzz_runs.fetch_add(1, std::memory_order_relaxed);
  g_fuzz_ops.fetch_add(res.executed, std::memory_order_relaxed);
  g_fuzz_reports.fetch_add(res.reports, std::memory_order_relaxed);
  g_fuzz_divergences.fetch_add(res.divergences.size(),
                               std::memory_order_relaxed);

  if (log != nullptr) {
    *log << "[" << cfg.name << "] seed=" << trace.seed
         << " ops=" << trace.ops.size() << " executed=" << res.executed
         << " skipped=" << res.skipped << " reports=" << res.reports
         << " divergences=" << res.divergences.size() << "\n";
    for (const Divergence& d : res.divergences) {
      if (d.op_index == static_cast<std::size_t>(-1)) {
        *log << "  [run] " << d.detail << "\n";
      } else {
        *log << "  [op " << d.op_index << "] " << d.detail << "\n";
      }
    }
  }
  return res;
}

std::vector<FuzzConfig> smoke_matrix(std::size_t n_ops) {
  std::vector<FuzzConfig> v;
  auto base = [&](const char* name) {
    FuzzConfig c;
    c.name = name;
    c.gen.n_ops = n_ops;
    return c;
  };
  v.push_back(base("immediate-1shard"));
  {
    FuzzConfig c = base("batch16-1shard");
    c.protect_batch = 16;
    v.push_back(c);
  }
  {
    // The queue flushed after every second free, over magazine-carved spans.
    FuzzConfig c = base("batch2-mag64");
    c.protect_batch = 2;
    c.magazine_slots = 64;
    v.push_back(c);
  }
  {
    FuzzConfig c = base("batch16-4shard-mt");
    c.shards = 4;
    c.protect_batch = 16;
    c.magazine_slots = 64;
    c.gen.lanes = 4;
    v.push_back(c);
  }
  {
    FuzzConfig c = base("forced-quarantine");
    c.forced_mode = 2;  // core::GuardMode::kQuarantineOnly
    v.push_back(c);
  }
  {
    // Sampled rung, 1-in-4: both lanes of the rung exercised in one run —
    // winners behave like full guard, losers like the ledgered fast path.
    FuzzConfig c = base("sampled-n4");
    c.forced_mode = 1;  // core::GuardMode::kSampled
    c.sample_rate = 4;
    v.push_back(c);
  }
  {
    FuzzConfig c = base("pool-batch16");
    c.mode = HarnessMode::kPool;
    c.protect_batch = 16;
    c.magazine_slots = 64;
    c.gen.pools = true;
    v.push_back(c);
  }
  {
    // Keyed VA reuse (DESIGN.md §16): pools, immediate revocation, and
    // objects of at most 256 bytes, so many share a canonical page and each
    // pool after the first takes its aliases from the keyed index — still
    // read-write from objects alive at pooldestroy, re-enabled from revoked
    // ones — and every stale use must still trap.
    FuzzConfig c = base("pool-alias-reuse");
    c.mode = HarnessMode::kPool;
    c.gen.pools = true;
    c.gen.max_size = 256;
    v.push_back(c);
  }
  {
    // Lock-and-key lane at full tag width: stale uses report synchronously,
    // generation wraps essentially never occur.
    FuzzConfig c = base("tag-lane");
    c.tag_lane = true;
    v.push_back(c);
  }
  {
    // MAP_FIXED recycle cache (DESIGN.md §16) with a deliberately tiny cap:
    // parked spans coalesce, split, and overflow to the shared freelist all
    // within one run, and none of it may perturb detection.
    FuzzConfig c = base("map-fixed-recycle");
    c.magazine_slots = 64;
    c.protect_batch = 16;
    c.recycle_cap = 32;
    v.push_back(c);
  }
  {
    // Graveyard revocation (DESIGN.md §16): a freed-VA budget makes every
    // free bury its span, the preload heap's shape, over 4 shards with
    // cross-shard frees. 64 GiB (16 GiB a shard) is above any run's freed
    // bytes, so nothing is released and the oracle stays exact.
    FuzzConfig c = base("grave-4shard-mt");
    c.shards = 4;
    c.gen.lanes = 4;
    c.va_budget = std::size_t{1} << 36;
    v.push_back(c);
  }
  return v;
}

std::vector<FuzzConfig> matrix(std::size_t n_ops) {
  std::vector<FuzzConfig> v = smoke_matrix(n_ops);
  auto base = [&](const char* name) {
    FuzzConfig c;
    c.name = name;
    c.gen.n_ops = n_ops;
    return c;
  };
  {
    FuzzConfig c = base("mag64-1shard");
    c.magazine_slots = 64;
    v.push_back(c);
  }
  {
    FuzzConfig c = base("immediate-4shard-mt");
    c.shards = 4;
    c.gen.lanes = 4;
    v.push_back(c);
  }
  {
    FuzzConfig c = base("faultplan-mmap");
    c.fault_plan = "mmap:errno=ENOMEM:every=97";
    v.push_back(c);
  }
  {
    FuzzConfig c = base("faultplan-mmap-batch16-mt");
    c.shards = 4;
    c.protect_batch = 16;
    c.gen.lanes = 4;
    c.fault_plan = "mmap:errno=ENOMEM:every=131";
    v.push_back(c);
  }
  {
    FuzzConfig c = base("pool-immediate");
    c.mode = HarnessMode::kPool;
    c.gen.pools = true;
    v.push_back(c);
  }
  {
    FuzzConfig c = base("forced-unguarded");
    c.forced_mode = 3;  // core::GuardMode::kUnguarded
    c.gen.plant_bugs = false;  // probing a plain heap would be UB, not a test
    v.push_back(c);
  }
  {
    // N=1 degenerates to full guard: every allocation samples, so this cell
    // must be indistinguishable from the unforced ladder's top rung.
    FuzzConfig c = base("sampled-n1");
    c.forced_mode = 1;  // core::GuardMode::kSampled
    c.sample_rate = 1;
    v.push_back(c);
  }
  {
    // Production-shaped rate: almost everything takes the ledgered fast
    // path; double frees must still report exactly.
    FuzzConfig c = base("sampled-n64");
    c.forced_mode = 1;  // core::GuardMode::kSampled
    c.sample_rate = 64;
    v.push_back(c);
  }
  {
    // Cross-thread frees of fast-path objects: the router misses the
    // registry and must consult the shared ledger on the home shard.
    FuzzConfig c = base("sampled-n4-4shard-mt");
    c.forced_mode = 1;  // core::GuardMode::kSampled
    c.sample_rate = 4;
    c.shards = 4;
    c.gen.lanes = 4;
    v.push_back(c);
  }
  {
    // 2-bit generations (locks cycle 1..3): slot churn wraps the counter
    // constantly, so stale probes land inside the tag reuse window often —
    // the wrap branch of the oracle is exercised, not just documented.
    FuzzConfig c = base("tag-wrap2");
    c.tag_lane = true;
    c.tag_bits = 2;
    v.push_back(c);
  }
  {
    // Recycle cache under shard-parallel churn: four caches coalescing and
    // splitting independently while remote frees cross shard boundaries.
    FuzzConfig c = base("recycle-4shard-mt");
    c.shards = 4;
    c.protect_batch = 16;
    c.magazine_slots = 64;
    c.recycle_cap = 16;
    c.gen.lanes = 4;
    v.push_back(c);
  }
  return v;
}

Trace shrink(const FuzzConfig& cfg, const Trace& trace, std::size_t max_runs) {
  std::size_t runs = 0;
  auto diverges = [&](const Trace& t) {
    ++runs;
    return !run_trace(cfg, t, nullptr).ok();
  };
  if (!diverges(trace)) return trace;

  Trace cur = trace;
  std::size_t chunk = std::max<std::size_t>(cur.ops.size() / 2, 1);
  while (runs < max_runs) {
    bool removed_any = false;
    for (std::size_t start = 0; start < cur.ops.size() && runs < max_runs;) {
      const std::size_t len = std::min(chunk, cur.ops.size() - start);
      Trace cand = cur;
      cand.ops.erase(cand.ops.begin() + static_cast<std::ptrdiff_t>(start),
                     cand.ops.begin() + static_cast<std::ptrdiff_t>(start + len));
      if (!cand.ops.empty() && diverges(cand)) {
        cur = std::move(cand);  // keep `start`: the next chunk slid into place
        removed_any = true;
      } else {
        start += len;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;  // 1-minimal: no single op can be removed
    } else {
      chunk = chunk / 2;
    }
  }
  return cur;
}

}  // namespace dpg::fuzz
