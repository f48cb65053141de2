// Fuzz-infrastructure suite (ctest label: fuzz): the trace language, the
// .dpgf replay format, clean in-process matrix runs, and — via the dpg_fuzz
// binary — the full known-bad workflow: a deliberately broken oracle must
// diverge, shrink to a minimal trace, and reproduce from the written replay
// file in one command. The smoke sweep itself runs as the separate
// `fuzz_smoke` ctest entry (dpg_fuzz --smoke).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/cross_checks.h"
#include "fuzz/harness.h"
#include "test_seed.h"

#ifndef DPG_FUZZ_BIN
#error "DPG_FUZZ_BIN must be defined by the build"
#endif

namespace dpg::fuzz {
namespace {

TEST(FuzzTrace, GeneratorIsDeterministic) {
  GenParams params;
  params.n_ops = 500;
  params.pools = true;
  const std::uint64_t seed = dpg::testing::dpg_test_seed(42);
  DPG_SEED_TRACE(seed);
  const Trace a = generate(seed, params);
  const Trace b = generate(seed, params);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ops.size(), 500u);
  // A different seed must actually change the program.
  const Trace c = generate(seed + 1, params);
  EXPECT_NE(a, c);
}

TEST(FuzzTrace, GeneratorCoversTheOpAlphabet) {
  GenParams params;
  params.n_ops = 4000;
  params.pools = true;
  const std::uint64_t seed = dpg::testing::dpg_test_seed(3);
  DPG_SEED_TRACE(seed);
  const Trace t = generate(seed, params);
  std::array<std::size_t, 12> hist{};
  for (const Op& op : t.ops) ++hist[static_cast<std::size_t>(op.kind)];
  for (const OpKind k :
       {OpKind::kMalloc, OpKind::kFree, OpKind::kRead, OpKind::kWrite,
        OpKind::kRealloc, OpKind::kFlush, OpKind::kUafRead, OpKind::kUafWrite,
        OpKind::kDoubleFree, OpKind::kInvalidFree, OpKind::kPoolCreate,
        OpKind::kPoolDestroy}) {
    EXPECT_GT(hist[static_cast<std::size_t>(k)], 0u) << op_name(k);
  }
}

TEST(FuzzTrace, StaticSubsetStaysInTheStaticAlphabet) {
  GenParams params;
  params.n_ops = 1000;
  params.static_compatible = true;
  const Trace t = generate(dpg::testing::dpg_test_seed(9), params);
  for (const Op& op : t.ops) {
    EXPECT_TRUE(op.kind == OpKind::kMalloc || op.kind == OpKind::kFree ||
                op.kind == OpKind::kRead || op.kind == OpKind::kWrite ||
                op.kind == OpKind::kUafRead || op.kind == OpKind::kUafWrite ||
                op.kind == OpKind::kDoubleFree)
        << op_name(op.kind);
    EXPECT_EQ(op.thread, 0);
  }
}

TEST(FuzzTrace, ReplayRoundTripIsByteIdentical) {
  FuzzConfig cfg;
  cfg.name = "batch16-1shard";
  cfg.protect_batch = 16;
  cfg.recycle_cap = 32;  // the recycle field rides the header too
  cfg.va_budget = std::size_t{1} << 36;  // and so does the freed-VA budget
  cfg.gen.n_ops = 200;
  const Trace t = generate(dpg::testing::dpg_test_seed(7), cfg.gen);
  const std::string text = to_replay(cfg, t);

  FuzzConfig cfg2;
  Trace t2;
  std::string err;
  ASSERT_TRUE(from_replay(text, &cfg2, &t2, &err)) << err;
  // Generator params are deliberately NOT serialized — the op list is the
  // program; a replay must not depend on re-generation.
  cfg2.gen = cfg.gen;
  EXPECT_EQ(cfg, cfg2);
  EXPECT_EQ(t, t2);
  EXPECT_EQ(to_replay(cfg2, t2), text);
}

TEST(FuzzTrace, ReplayParserRejectsMalformedInput) {
  FuzzConfig cfg;
  Trace t;
  std::string err;
  EXPECT_FALSE(from_replay("", &cfg, &t, &err));
  EXPECT_FALSE(from_replay("not a dpgf file\n", &cfg, &t, &err));
  const std::string good = to_replay(FuzzConfig{}, generate(1, GenParams{}));
  EXPECT_FALSE(from_replay(good + "BOGUS LINE\n", &cfg, &t, &err));
  // The byte-budget flush trigger is gone; a replay naming it must not run
  // as a different cell than it was recorded under.
  std::string stale = good;
  const std::string batch_line = "batch 0\n";
  const auto at = stale.find(batch_line);
  ASSERT_NE(at, std::string::npos);
  stale.insert(at + batch_line.size(), "batch_bytes 4096\n");
  EXPECT_FALSE(from_replay(stale, &cfg, &t, &err));
  EXPECT_NE(err.find("batch_bytes"), std::string::npos);
  // forced_mode is a core::GuardMode value (or -1); out-of-range must not
  // silently cast to garbage when the harness pins the governor.
  std::string bad = good;
  const std::string unforced = "forced_mode -1";
  const auto pos = bad.find(unforced);
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, unforced.size(), "forced_mode 9");
  EXPECT_FALSE(from_replay(bad, &cfg, &t, &err));
  EXPECT_NE(err.find("forced_mode"), std::string::npos);
}

// Tiny in-process run of every matrix cell: the differential harness itself
// must hold on each config (the heavier sweep lives in fuzz_smoke).
TEST(FuzzHarness, EveryMatrixCellRunsClean) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(11);
  DPG_SEED_TRACE(seed);
  for (const FuzzConfig& cfg : matrix(300)) {
    const Trace trace = generate(seed, cfg.gen);
    const RunResult res = run_trace(cfg, trace, nullptr);
    EXPECT_TRUE(res.ok()) << cfg.name << ": " << [&] {
      std::string all;
      for (const Divergence& d : res.divergences) all += d.detail + "\n";
      return all;
    }();
    EXPECT_GT(res.executed, 0u) << cfg.name;
  }
}

// Deeper lockstep sweep of the sampled lane than the matrix smoke above:
// the oracle must track the engine op-for-op at every rate — N=1 (degenerate
// full guard), a small N that mixes lanes heavily, and the production-shaped
// N=64 where almost everything rides the ledgered fast path.
TEST(FuzzHarness, SampledLaneLockstepAcrossRates) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(31);
  DPG_SEED_TRACE(seed);
  for (const std::size_t n : {std::size_t{1}, std::size_t{4},
                              std::size_t{64}}) {
    FuzzConfig cfg;
    cfg.name = "sampled-lockstep-n" + std::to_string(n);
    cfg.forced_mode = 1;  // core::GuardMode::kSampled
    cfg.sample_rate = n;
    cfg.gen.n_ops = 4000;
    const Trace trace = generate(seed + n, cfg.gen);
    const RunResult res = run_trace(cfg, trace, nullptr);
    EXPECT_TRUE(res.ok()) << cfg.name << ": " << [&] {
      std::string all;
      for (const Divergence& d : res.divergences) all += d.detail + "\n";
      return all;
    }();
    EXPECT_GT(res.executed, 0u) << cfg.name;
  }
}

TEST(FuzzCrossChecks, BaselinesAgreeWithTheTraceModel) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(21);
  DPG_SEED_TRACE(seed);
  const auto div = baseline_cross_check(seed, 300);
  EXPECT_TRUE(div.empty()) << div.front().detail;
}

TEST(FuzzCrossChecks, StaticAnalyzerAgreesWithTheRuntime) {
  const std::uint64_t seed = dpg::testing::dpg_test_seed(22);
  DPG_SEED_TRACE(seed);
  const auto div = static_cross_check(seed, 200);
  EXPECT_TRUE(div.empty()) << div.front().detail;
}

// --- the known-bad demo, end to end through the CLI ------------------------

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(DPG_FUZZ_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (pipe == nullptr) return r;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(FuzzCli, OracleBugShrinksToReplayThatReproduces) {
  char path_tmpl[] = "/tmp/dpg_fuzz_XXXXXX";
  const int fd = mkstemp(path_tmpl);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string out = path_tmpl;

  // The deliberately broken oracle predicts queued revocations as already
  // applied: on a batched config an in-window UAF read diverges. Exit 2 =
  // divergence found, shrunk, replay written, seed printed.
  const CliResult found = run_cli(
      "--config batch16-1shard --oracle-bug --seeds 20 --ops 800 --out " + out);
  ASSERT_EQ(found.exit_code, 2) << found.output;
  EXPECT_NE(found.output.find("DIVERGENCE"), std::string::npos) << found.output;
  EXPECT_NE(found.output.find("seed="), std::string::npos) << found.output;
  EXPECT_NE(found.output.find("shrunk to"), std::string::npos) << found.output;
  EXPECT_NE(found.output.find("reproduce with:"), std::string::npos)
      << found.output;

  // The shrunken trace must be genuinely minimal for this defect: one malloc,
  // one free (queued, not yet revoked), one UAF read inside the window.
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  FuzzConfig cfg;
  Trace small;
  std::string err;
  ASSERT_TRUE(from_replay(buf.str(), &cfg, &small, &err)) << err;
  EXPECT_TRUE(cfg.oracle_bug);
  EXPECT_LE(small.ops.size(), 4u) << buf.str();

  // One command reproduces it from the file alone.
  const CliResult replay = run_cli("--replay " + out);
  EXPECT_EQ(replay.exit_code, 2) << replay.output;
  EXPECT_NE(replay.output.find("divergence reproduced"), std::string::npos)
      << replay.output;
  unlink(path_tmpl);
}

TEST(FuzzCli, ListConfigsNamesEveryCell) {
  const CliResult r = run_cli("--list-configs");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const FuzzConfig& cfg : matrix(100)) {
    EXPECT_NE(r.output.find(cfg.name), std::string::npos) << cfg.name;
  }
}

}  // namespace
}  // namespace dpg::fuzz
