// dpg_fuzz — model-based differential fuzzer CLI (see src/fuzz/).
//
// Modes:
//   dpg_fuzz --smoke                    bounded 7-config sweep + cross-checks
//                                       (the ctest `fuzz` label runs this)
//   dpg_fuzz --matrix                   full config matrix
//   dpg_fuzz --config NAME              one matrix cell by name
//   dpg_fuzz --replay FILE.dpgf         re-run a shrunken divergence
//   dpg_fuzz --list-configs             print every matrix cell
//
// Knobs: --seed S (first seed, default 1), --seeds N (seeds per config,
// default 1; smoke uses fixed seeds), --ops N (trace length; default 10000
// for --smoke, 2000 otherwise), --out FILE (replay file written on
// divergence, default dpg_fuzz_failure.dpgf), --oracle-bug (arm the
// deliberately broken oracle — the known-bad demo), --crash-dump (arm the
// postmortem writer: a divergence also leaves a .dpgcrash snapshot next to
// the .dpgf replay, so fuzzer findings flow through the same dpg_report
// pipeline as production faults).
//
// Exit codes: 0 = every run agreed with the oracle; 1 = usage / IO error;
// 2 = divergence (the seed is printed and, for trace runs, a minimal replay
// file is written; `dpg_fuzz --replay <file>` reproduces it in one command).
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/cross_checks.h"
#include "fuzz/harness.h"
#include "obs/dump.h"

namespace {

using namespace dpg::fuzz;

constexpr std::size_t kSmokeOps = 10000;
constexpr std::size_t kDefaultOps = 2000;
constexpr std::uint64_t kSmokeSeedBase = 0x5EED0000;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--smoke | --matrix | --config NAME | --replay FILE |"
         " --list-configs]\n"
         "       [--seed S] [--seeds N] [--ops N] [--out FILE] [--oracle-bug]\n";
  return 1;
}

// On divergence: re-run with logging (deterministic), shrink, write the
// replay file, print the one-command repro. Returns the exit code.
int report_divergence(const FuzzConfig& cfg, const Trace& trace,
                      const std::string& out_path, const char* argv0) {
  std::cerr << "DIVERGENCE: config=" << cfg.name << " seed=" << trace.seed
            << " ops=" << trace.ops.size() << "\n";
  (void)run_trace(cfg, trace, &std::cerr);

  std::cerr << "shrinking...\n";
  const Trace small = shrink(cfg, trace);
  std::cerr << "shrunk to " << small.ops.size() << " ops\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write replay file: " << out_path << "\n";
    return 2;  // still a divergence; the replay file is a convenience
  }
  out << to_replay(cfg, small);
  out.close();
  std::cerr << "replay written: " << out_path << "\n"
            << "reproduce with: " << argv0 << " --replay " << out_path << "\n";
  // --crash-dump: snapshot the process state (counters, rings, ladder) into
  // a .dpgcrash beside the replay. Oracle mismatches have no DanglingReport —
  // the divergence is in bookkeeping, not a trap — so the report is null.
  if (dpg::obs::dump::enabled()) {
    char dump_name[128] = {0};
    if (dpg::obs::dump::write_crash_dump("oracle-mismatch", nullptr, dump_name,
                                         sizeof dump_name)) {
      std::cerr << "crash dump written: " << dump_name << "\n";
    }
  }
  return 2;
}

int run_replay(const std::string& path, const char* argv0) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read: " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  FuzzConfig cfg;
  Trace trace;
  std::string err;
  if (!from_replay(buf.str(), &cfg, &trace, &err)) {
    std::cerr << "bad replay file: " << err << "\n";
    return 1;
  }
  std::cout << "replaying config=" << cfg.name << " seed=" << trace.seed
            << " ops=" << trace.ops.size() << "\n";
  const RunResult res = run_trace(cfg, trace, &std::cout);
  if (!res.ok()) {
    std::cout << "divergence reproduced (" << res.divergences.size()
              << " divergences)\n";
    return 2;
  }
  std::cout << "no divergence (" << argv0
            << " ran the trace cleanly — fixed, or machine-dependent)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool full = false;
  bool list = false;
  bool oracle_bug = false;
  bool crash_dump = false;
  std::string config_name;
  std::string replay_path;
  std::string out_path = "dpg_fuzz_failure.dpgf";
  std::uint64_t seed0 = 1;
  std::size_t n_seeds = 1;
  std::size_t n_ops = 0;  // 0 = per-mode default

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--matrix") {
      full = true;
    } else if (arg == "--list-configs") {
      list = true;
    } else if (arg == "--oracle-bug") {
      oracle_bug = true;
    } else if (arg == "--crash-dump") {
      crash_dump = true;
    } else if (arg == "--config") {
      config_name = value();
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--seed") {
      seed0 = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--seeds") {
      n_seeds = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--ops") {
      n_ops = std::strtoull(value(), nullptr, 0);
    } else {
      return usage(argv[0]);
    }
  }

  if (crash_dump && std::getenv("DPG_REPORT_DIR") == nullptr) {
    // Arm the writer on the replay file's directory so the .dpgcrash lands
    // next to the .dpgf. An explicit DPG_REPORT_DIR wins (init_from_env).
    std::string dir = out_path;
    const std::size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    if (!dpg::obs::dump::set_report_dir(dir.c_str())) {
      std::cerr << "cannot arm crash dumps on " << dir << "\n";
      return 1;
    }
  }

  if (!replay_path.empty()) return run_replay(replay_path, argv[0]);

  const std::size_t ops = n_ops != 0 ? n_ops
                          : smoke    ? kSmokeOps
                                     : kDefaultOps;

  if (list) {
    for (const FuzzConfig& cfg : matrix(ops)) {
      std::cout << cfg.name << "  mode="
                << (cfg.mode == HarnessMode::kPool ? "pool" : "heap")
                << " shards=" << cfg.shards
                << " magazines=" << cfg.magazine_slots
                << " batch=" << cfg.protect_batch
                << " fault=" << (cfg.fault_plan.empty() ? "-" : cfg.fault_plan)
                << " forced_mode=" << cfg.forced_mode
                << " lanes=" << cfg.gen.lanes
                << " tag_lane=" << (cfg.tag_lane ? 1 : 0)
                << " tag_bits=" << cfg.tag_bits
                << " recycle_cap=" << cfg.recycle_cap
                << " va_budget=" << cfg.va_budget << "\n";
    }
    return 0;
  }

  std::vector<FuzzConfig> configs;
  if (!config_name.empty()) {
    for (const FuzzConfig& cfg : matrix(ops)) {
      if (cfg.name == config_name) configs.push_back(cfg);
    }
    if (configs.empty()) {
      std::cerr << "unknown config: " << config_name
                << " (try --list-configs)\n";
      return 1;
    }
  } else if (full) {
    configs = matrix(ops);
  } else if (smoke) {
    configs = smoke_matrix(ops);
  } else {
    return usage(argv[0]);
  }
  if (oracle_bug) {
    for (FuzzConfig& cfg : configs) cfg.oracle_bug = true;
  }

  std::size_t runs = 0;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const FuzzConfig& cfg = configs[ci];
    for (std::size_t s = 0; s < n_seeds; ++s) {
      // Smoke pins its seeds (one per cell) so the ctest run is byte-stable;
      // explicit sweeps walk seed0+s.
      const std::uint64_t seed = smoke && config_name.empty() && n_seeds == 1
                                     ? kSmokeSeedBase + ci
                                     : seed0 + s;
      const Trace trace = generate(seed, cfg.gen);
      const RunResult res = run_trace(cfg, trace, nullptr);
      ++runs;
      std::cout << "[" << cfg.name << "] seed=" << seed
                << " executed=" << res.executed << " skipped=" << res.skipped
                << " reports=" << res.reports
                << (res.ok() ? " ok" : " DIVERGED") << "\n";
      if (!res.ok()) return report_divergence(cfg, trace, out_path, argv[0]);
    }
  }

  if (smoke || full) {
    // Cross-stack agreement: baselines and the static analyzer see the same
    // trace language, so a lying layer shows up here, not in Table 2.
    const auto base_div = baseline_cross_check(seed0, 400, &std::cout);
    if (!base_div.empty()) {
      std::cerr << "DIVERGENCE: baseline cross-check, seed=" << seed0 << "\n";
      return 2;
    }
    const auto static_div = static_cross_check(seed0, 300, &std::cout);
    if (!static_div.empty()) {
      std::cerr << "DIVERGENCE: static cross-check, seed=" << seed0 << "\n";
      return 2;
    }
  }

  std::cout << runs << " runs, 0 divergences\n";
  return 0;
}
