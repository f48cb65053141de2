// Fuzzer throughput (google-benchmark): differential ops/second per matrix
// cell. This is the budget that decides how much state space a nightly soak
// covers, and a regression here silently shrinks the fuzzer's reach — the
// numbers keep it honest. Generation is measured on its own so executor
// regressions aren't blamed on the trace builder.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "fuzz/harness.h"

using namespace dpg::fuzz;

static void BM_Fuzz_Generate(benchmark::State& state) {
  GenParams params;
  params.n_ops = static_cast<std::size_t>(state.range(0));
  params.pools = true;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Trace t = generate(seed++, params);
    benchmark::DoNotOptimize(t.ops.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fuzz_Generate)->Arg(1000)->Arg(10000);

// One full differential run (fresh SUT + oracle + sweep + invariants) per
// iteration, on the named matrix cell.
static void run_cell(benchmark::State& state, const char* name) {
  FuzzConfig cfg;
  bool found = false;
  for (const FuzzConfig& c : matrix(static_cast<std::size_t>(state.range(0)))) {
    if (c.name == name) {
      cfg = c;
      found = true;
    }
  }
  if (!found) {
    state.SkipWithError("unknown matrix cell");
    return;
  }
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Trace trace = generate(seed++, cfg.gen);
    const RunResult res = run_trace(cfg, trace, nullptr);
    if (!res.ok()) {
      state.SkipWithError("divergence during benchmark");
      return;
    }
    benchmark::DoNotOptimize(res.executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

static void BM_Fuzz_Run_Immediate(benchmark::State& state) {
  run_cell(state, "immediate-1shard");
}
BENCHMARK(BM_Fuzz_Run_Immediate)->Arg(2000)->Unit(benchmark::kMillisecond);

static void BM_Fuzz_Run_Batch16(benchmark::State& state) {
  run_cell(state, "batch16-1shard");
}
BENCHMARK(BM_Fuzz_Run_Batch16)->Arg(2000)->Unit(benchmark::kMillisecond);

static void BM_Fuzz_Run_Magazines(benchmark::State& state) {
  run_cell(state, "batch2-mag64");
}
BENCHMARK(BM_Fuzz_Run_Magazines)->Arg(2000)->Unit(benchmark::kMillisecond);

static void BM_Fuzz_Run_ShardedMt(benchmark::State& state) {
  run_cell(state, "batch16-4shard-mt");
}
BENCHMARK(BM_Fuzz_Run_ShardedMt)->Arg(2000)->Unit(benchmark::kMillisecond);

static void BM_Fuzz_Run_Pool(benchmark::State& state) {
  run_cell(state, "pool-batch16");
}
BENCHMARK(BM_Fuzz_Run_Pool)->Arg(2000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
