#include "fuzz/trace.h"

#include <algorithm>
#include <sstream>

#include "workloads/common.h"

namespace dpg::fuzz {

namespace {

// Token table for the .dpgf op lines (index == OpKind value).
constexpr const char* kOpTokens[] = {
    "M", "F", "R", "W", "RA", "FL", "UR", "UW", "DF", "IF", "PC", "PD",
};
constexpr const char* kOpNames[] = {
    "malloc",     "free",  "read",     "write",      "realloc",
    "flush",      "uaf-r", "uaf-w",    "double-free", "invalid-free",
    "pool-create", "pool-destroy",
};
constexpr std::size_t kNumOps = sizeof(kOpTokens) / sizeof(kOpTokens[0]);

struct GObj {
  std::uint32_t id = 0;
  std::uint32_t size = 0;
  std::uint8_t lane = 0;
  std::uint32_t pool = 0;
};

// Remove-by-swap: order inside the generator's working sets carries no
// meaning, only membership does.
void swap_remove(std::vector<GObj>& v, std::size_t i) {
  v[i] = v.back();
  v.pop_back();
}

}  // namespace

const char* op_name(OpKind k) noexcept {
  const auto i = static_cast<std::size_t>(k);
  return i < kNumOps ? kOpNames[i] : "?";
}

Trace generate(std::uint64_t seed, const GenParams& params) {
  workloads::Rng rng(seed);
  Trace t;
  t.seed = seed;
  t.lanes = std::max<std::uint32_t>(params.lanes, 1);

  const std::uint32_t max_size = std::max<std::uint32_t>(params.max_size, 1);
  // Straight-line PIR must stay small enough for the analyzer to chew
  // through comfortably (one node per object).
  const std::uint32_t max_objects =
      params.static_compatible ? 96 : 0xFFFFFFFFu;

  std::vector<GObj> live;
  std::vector<GObj> freed;          // probeable dangling objects
  std::vector<std::uint32_t> pools; // innermost last; empty = base pool only
  std::uint32_t next_id = 1;
  std::uint32_t next_pool = 1;

  const bool pools_on = params.pools && !params.static_compatible;
  const bool bugs = params.plant_bugs;

  auto lane = [&]() -> std::uint8_t {
    return params.static_compatible
               ? 0
               : static_cast<std::uint8_t>(rng.below(t.lanes));
  };

  t.ops.reserve(params.n_ops);
  while (t.ops.size() < params.n_ops) {
    const std::uint64_t roll = rng.below(100);
    Op op;

    if (roll < 30) {  // malloc
      if (live.size() >= params.max_live || next_id >= max_objects) continue;
      op.kind = OpKind::kMalloc;
      op.thread = lane();
      op.obj = next_id++;
      op.size = static_cast<std::uint32_t>(1 + rng.below(max_size));
      live.push_back(GObj{op.obj, op.size, op.thread,
                          pools.empty() ? 0u : pools.back()});
    } else if (roll < 50) {  // read
      if (live.empty()) continue;
      const GObj& o = live[rng.below(live.size())];
      op.kind = OpKind::kRead;
      op.thread = lane();
      op.obj = o.id;
      op.offset = static_cast<std::uint32_t>(rng.below(o.size));
    } else if (roll < 58) {  // write (re-fill)
      if (live.empty()) continue;
      op.kind = OpKind::kWrite;
      op.thread = lane();
      op.obj = live[rng.below(live.size())].id;
    } else if (roll < 74) {  // free
      if (live.empty()) continue;
      const std::size_t i = rng.below(live.size());
      const GObj o = live[i];
      op.kind = OpKind::kFree;
      // Mostly the allocating lane (same-shard path); sometimes any lane, to
      // drive free_remote.
      op.thread = (params.static_compatible || rng.below(10) < 7)
                      ? o.lane
                      : lane();
      op.obj = o.id;
      swap_remove(live, i);
      freed.push_back(o);
      if (freed.size() > 512) freed.erase(freed.begin());
    } else if (roll < 79) {  // realloc
      if (params.static_compatible || live.empty() ||
          next_id >= max_objects) {
        continue;
      }
      const std::size_t i = rng.below(live.size());
      GObj o = live[i];
      op.kind = OpKind::kRealloc;
      op.thread = o.lane;  // routed to the owner engine anyway
      op.obj = o.id;
      op.obj2 = next_id++;
      op.size = static_cast<std::uint32_t>(1 + rng.below(max_size));
      swap_remove(live, i);
      freed.push_back(o);  // the old id is now a stale-realloc pointer
      live.push_back(GObj{op.obj2, op.size, o.lane, o.pool});
    } else if (roll < 81) {  // flush
      if (params.static_compatible) continue;
      op.kind = OpKind::kFlush;
      op.thread = lane();
    } else if (roll < 87) {  // UAF read probe
      if (!bugs || freed.empty()) continue;
      const GObj& o = freed[rng.below(freed.size())];
      op.kind = OpKind::kUafRead;
      op.thread = lane();
      op.obj = o.id;
      op.offset = static_cast<std::uint32_t>(rng.below(o.size));
    } else if (roll < 90) {  // UAF write probe
      if (!bugs || freed.empty()) continue;
      const GObj& o = freed[rng.below(freed.size())];
      op.kind = OpKind::kUafWrite;
      op.thread = lane();
      op.obj = o.id;
      op.offset = static_cast<std::uint32_t>(rng.below(o.size));
    } else if (roll < 93) {  // double free
      if (!bugs || freed.empty()) continue;
      op.kind = OpKind::kDoubleFree;
      op.thread = lane();
      op.obj = freed[rng.below(freed.size())].id;
    } else if (roll < 95) {  // invalid (interior) free
      if (!bugs || params.static_compatible || live.empty()) continue;
      const GObj& o = live[rng.below(live.size())];
      if (o.size < 2) continue;  // need a distinct interior byte
      op.kind = OpKind::kInvalidFree;
      op.thread = lane();
      op.obj = o.id;
      op.offset = static_cast<std::uint32_t>(1 + rng.below(o.size - 1));
    } else if (roll < 98) {  // pool create
      if (!pools_on || pools.size() >= 4) continue;
      op.kind = OpKind::kPoolCreate;
      op.obj = next_pool++;
      pools.push_back(op.obj);
    } else {  // pool destroy (innermost only: LIFO, like PoolScope)
      if (!pools_on || pools.empty()) continue;
      op.kind = OpKind::kPoolDestroy;
      op.obj = pools.back();
      pools.pop_back();
      // Every object of the destroyed pool is released: no longer a valid
      // free/probe target.
      auto dead = [&](const GObj& o) { return o.pool == op.obj; };
      live.erase(std::remove_if(live.begin(), live.end(), dead), live.end());
      freed.erase(std::remove_if(freed.begin(), freed.end(), dead),
                  freed.end());
    }
    t.ops.push_back(op);
  }
  return t;
}

std::string to_replay(const FuzzConfig& cfg, const Trace& trace) {
  std::ostringstream out;
  out << "dpgf 1\n";
  out << "name " << cfg.name << "\n";
  out << "mode " << (cfg.mode == HarnessMode::kPool ? "pool" : "heap") << "\n";
  out << "shards " << cfg.shards << "\n";
  out << "magazines " << cfg.magazine_slots << "\n";
  out << "batch " << cfg.protect_batch << "\n";
  out << "fault " << (cfg.fault_plan.empty() ? "-" : cfg.fault_plan) << "\n";
  out << "forced_mode " << cfg.forced_mode << "\n";
  out << "sample_rate " << cfg.sample_rate << "\n";
  out << "oracle_bug " << (cfg.oracle_bug ? 1 : 0) << "\n";
  out << "tag_lane " << (cfg.tag_lane ? 1 : 0) << "\n";
  out << "tag_bits " << cfg.tag_bits << "\n";
  out << "recycle_cap " << cfg.recycle_cap << "\n";
  out << "va_budget " << cfg.va_budget << "\n";
  out << "seed " << trace.seed << "\n";
  out << "lanes " << trace.lanes << "\n";
  out << "ops " << trace.ops.size() << "\n";
  for (const Op& op : trace.ops) {
    out << kOpTokens[static_cast<std::size_t>(op.kind)] << " "
        << static_cast<unsigned>(op.thread) << " " << op.obj << " " << op.obj2
        << " " << op.size << " " << op.offset << "\n";
  }
  return out.str();
}

bool from_replay(const std::string& text, FuzzConfig* cfg, Trace* trace,
                 std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  std::istringstream in(text);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "dpgf" || version != 1) {
    return fail("not a dpgf v1 file");
  }
  FuzzConfig c;
  Trace t;
  std::size_t n_ops = 0;
  bool saw_ops = false;
  while (!saw_ops && (in >> tag)) {
    if (tag == "name") {
      in >> c.name;
    } else if (tag == "mode") {
      std::string m;
      in >> m;
      if (m == "heap") {
        c.mode = HarnessMode::kHeap;
      } else if (m == "pool") {
        c.mode = HarnessMode::kPool;
      } else {
        return fail("bad mode: " + m);
      }
    } else if (tag == "shards") {
      in >> c.shards;
    } else if (tag == "magazines") {
      in >> c.magazine_slots;
    } else if (tag == "batch") {
      in >> c.protect_batch;
    } else if (tag == "fault") {
      in >> c.fault_plan;
      if (c.fault_plan == "-") c.fault_plan.clear();
    } else if (tag == "forced_mode") {
      in >> c.forced_mode;
      // core::GuardMode as int, or -1 for the unforced ladder; the harness
      // casts it straight to the enum, so anything else must not reach it.
      if (c.forced_mode < -1 || c.forced_mode > 3) {
        return fail("bad forced_mode");
      }
    } else if (tag == "sample_rate") {
      in >> c.sample_rate;
    } else if (tag == "oracle_bug") {
      int v = 0;
      in >> v;
      c.oracle_bug = v != 0;
    } else if (tag == "tag_lane") {
      int v = 0;
      in >> v;
      c.tag_lane = v != 0;
    } else if (tag == "tag_bits") {
      in >> c.tag_bits;
    } else if (tag == "recycle_cap") {
      in >> c.recycle_cap;
    } else if (tag == "va_budget") {
      in >> c.va_budget;
    } else if (tag == "seed") {
      in >> t.seed;
    } else if (tag == "lanes") {
      in >> t.lanes;
    } else if (tag == "ops") {
      in >> n_ops;
      saw_ops = true;
    } else {
      return fail("unknown header field: " + tag);
    }
    if (!in) return fail("truncated header after: " + tag);
  }
  if (!saw_ops) return fail("missing ops header");
  if (t.lanes == 0 || t.lanes > 64) return fail("bad lane count");
  if (n_ops > (std::size_t{1} << 24)) return fail("implausible op count");
  t.ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    std::string tok;
    unsigned thread = 0;
    Op op;
    if (!(in >> tok >> thread >> op.obj >> op.obj2 >> op.size >> op.offset)) {
      return fail("truncated op " + std::to_string(i));
    }
    bool known = false;
    for (std::size_t k = 0; k < kNumOps; ++k) {
      if (tok == kOpTokens[k]) {
        op.kind = static_cast<OpKind>(k);
        known = true;
        break;
      }
    }
    if (!known) return fail("unknown op token: " + tok);
    if (thread >= t.lanes) return fail("op lane out of range");
    op.thread = static_cast<std::uint8_t>(thread);
    t.ops.push_back(op);
  }
  std::string trailing;
  if (in >> trailing) return fail("trailing garbage after op list: " + trailing);
  if (cfg != nullptr) *cfg = std::move(c);
  if (trace != nullptr) *trace = std::move(t);
  return true;
}

}  // namespace dpg::fuzz
