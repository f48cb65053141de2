// Fuzz traces — the shared language of the differential fuzzer.
//
// A Trace is a deterministic, seed-replayable program over abstract object
// ids: allocate, access, free, plus the bug classes the stack must detect
// (use-after-free reads/writes, double frees, interior-pointer frees) and the
// lifecycle events that stress the scaling layers (realloc churn, explicit
// revocation flushes, pool create/destroy). The same trace is executed
// against the real stack (harness.h) and predicted by the pure reference
// oracle (oracle.h); any disagreement is a divergence.
//
// Op semantics are STATE-DIRECTED, not label-directed: a kDoubleFree on an
// object the model considers live is executed (and predicted) as an ordinary
// free, a kUafRead on a live object as an ordinary read. The labels only bias
// generation. This makes the ddmin shrinker (harness.h) trivially sound —
// deleting the op that freed an object re-interprets later probe ops instead
// of wedging the executor — and keeps every shrunken trace a valid trace.
//
// Replay files (.dpgf) are line-oriented text: a header pinning the config
// and seed, then one op per line. `dpg_fuzz --replay file.dpgf` re-runs a
// divergence from the exact bytes the shrinker wrote.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dpg::fuzz {

enum class OpKind : std::uint8_t {
  kMalloc,       // obj := allocation of `size` bytes on lane `thread`
  kFree,         // free obj (clean: generator believes obj is live)
  kRead,         // read obj[offset] (clean)
  kWrite,        // rewrite obj's fill pattern (clean)
  kRealloc,      // obj2 := realloc(obj, size); obj becomes dangling
  kFlush,        // flush every revocation queue / remote list
  kUafRead,      // read obj[offset] after free — must trap once revoked
  kUafWrite,     // write obj[offset] after free — must trap once revoked
  kDoubleFree,   // free obj again — must report, exactly, in every config
  kInvalidFree,  // free an interior pointer of live obj — must report
  kPoolCreate,   // obj names a fresh pool; subsequent allocs land in it
  kPoolDestroy,  // destroy the innermost pool (obj); its objects die
};

[[nodiscard]] const char* op_name(OpKind k) noexcept;

struct Op {
  OpKind kind{};
  std::uint8_t thread = 0;   // executing lane
  std::uint32_t obj = 0;     // target object id (pool id for pool ops)
  std::uint32_t obj2 = 0;    // kRealloc: replacement object id
  std::uint32_t size = 0;    // kMalloc/kRealloc payload bytes
  std::uint32_t offset = 0;  // access offset (normalized by the executor)

  bool operator==(const Op&) const = default;
};

struct Trace {
  std::uint64_t seed = 0;
  std::uint32_t lanes = 1;  // executor threads (1 = run inline)
  std::vector<Op> ops;

  bool operator==(const Trace&) const = default;
};

struct GenParams {
  std::size_t n_ops = 2000;
  std::uint32_t lanes = 1;
  std::uint32_t max_size = 1024;  // payload bytes per object, >= 1
  std::size_t max_live = 256;     // soft cap on simultaneously live objects
  bool pools = false;             // emit kPoolCreate/kPoolDestroy (lanes == 1)
  // Plant temporal bugs (UAF probes, double frees, interior frees). Off for
  // configs where probing would be unsound (forced kUnguarded: a "double
  // free" would free a recycled live block of the shared canonical heap).
  bool plant_bugs = true;
  // Restrict to the op subset expressible as straight-line PIR for the
  // static-analyzer cross-check: no realloc, no invalid frees, no pools, no
  // flush, lane 0 only, and a bounded object count.
  bool static_compatible = false;

  bool operator==(const GenParams&) const = default;
};

// Deterministic: same (seed, params) -> byte-identical trace, any platform.
[[nodiscard]] Trace generate(std::uint64_t seed, const GenParams& params);

enum class HarnessMode : std::uint8_t { kHeap, kPool };

// One cell of the config matrix. `name` keys the matrix() registry and the
// replay header; every field below it reproduces the cell from scratch.
struct FuzzConfig {
  std::string name = "immediate-1shard";
  HarnessMode mode = HarnessMode::kHeap;
  std::size_t shards = 1;
  std::size_t magazine_slots = 0;
  std::size_t protect_batch = 0;
  std::string fault_plan;  // DPG_FAULT_INJECT grammar; "" = none
  int forced_mode = -1;    // core::GuardMode to pin, -1 = ladder off-forced
  // Base 1-in-N guard probability for sampled-rung cells (forced_mode ==
  // kSampled). 0 = governor default. The per-allocation decision is made by
  // the real governor and introspected back (classify_guard), so any N stays
  // exact.
  std::size_t sample_rate = 0;
  // Deliberate oracle defect (predicts queued revocations as already
  // applied): the known-bad seed for the shrink/replay demo.
  bool oracle_bug = false;
  // Lock-and-key lane cell: every heap allocation goes through a
  // core::LockAndKeyLane (generation key in the pointer's high bits, lock
  // word in the slot) instead of the page guard — the runtime half of the
  // scheme chooser's kLockAndKey verdict. The oracle mirrors the lane's
  // exact semantics including the tag reuse window after generation wrap.
  bool tag_lane = false;
  // Generation-counter width for tag-lane cells (clamped to [2, 15] by the
  // lane). Narrow widths force wraps, exercising the reuse-window oracle
  // branch; the default is the full width.
  unsigned tag_bits = 15;
  // GuardConfig::window_recycle_cap for the MAP_FIXED recycle-cache cell.
  std::size_t recycle_cap = 0;
  // GuardConfig::freed_va_budget. Nonzero makes every free bury its span
  // (graveyard revocation, DESIGN.md §16). The oracle does not model budget
  // releases, so a cell sets this above the run's total freed bytes.
  std::size_t va_budget = 0;
  GenParams gen;

  bool operator==(const FuzzConfig&) const = default;
};

// .dpgf serialization. from_replay returns false and fills `err` on any
// malformed input; to_replay(from_replay(x)) is byte-identical for files the
// fuzzer writes.
[[nodiscard]] std::string to_replay(const FuzzConfig& cfg, const Trace& trace);
[[nodiscard]] bool from_replay(const std::string& text, FuzzConfig* cfg,
                               Trace* trace, std::string* err);

}  // namespace dpg::fuzz
