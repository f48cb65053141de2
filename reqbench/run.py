#!/usr/bin/env python3
"""Request-level benchmark of dpguard's two shipped guard paths.

    python3 reqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  preload_rpc      unmodified malloc/free server (rb_rpc) under
                   libdpg_preload.so at the shipped defaults
  pool_conn_heavy  ~40 allocations per connection pool (rb_pool, GuardedPolicy)
  pool_conn_light  1-2 allocations per connection pool, 64 KiB-1 MiB streamed

Load is one process of min(nproc, 4) closed-loop workers; each builds its
next request only after the previous response. Every run:

  1. builds the benchmark programs from source into $CARGO_TARGET_DIR (default
     .bench_build) with reqbench/CMakeLists.txt;
  2. times set-up (process start to "ready") five times and keeps the median;
  3. runs the guarded program for a 2 s warm-up plus --seconds, recording
     every response checksum, then plants a dangling read, a dangling write
     and a double free through the workload's own allocation path.
     Throughput and latency percentiles are taken per second of the timed
     phase; the reported value is their median over the seconds in which
     the hypervisor stole little CPU time (see quiet());
  4. replays the same per-worker request streams natively (NativePolicy,
     or no preload), checking every checksum; each of three replay
     processes times the timed range in chunks, repeating it until it has
     run for 1 s per worker, and overhead_x divides the guarded time per
     request by the median process's median chunk.

--trace 1 instead runs the guarded program twice, untraced and traced, each
checked against a native replay, and reports the per-layer metrics: spans
the benchmark programs record around their own calls into each layer, the runtime's
syscall counters and DPG_TRACE latency histograms, the guard and governor
counters, and getrusage.

The benchmark sets no GuardConfig field and no dpguard knob: DPG_* variables
are stripped from the environment, and only the observability outputs
(DPG_METRICS_PATH for the counter dumps, DPG_TRACE in the traced run) are set.

The last line of stdout is the result JSON; the lines before it print every
metric by name and unit, the host fingerprint and failed_frac.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # after the build; a run must end within 180 s
QUIET_STEAL = 0.01
NATIVE_RUNS = 3
SETUP_RUNS = 5
PROBES = ("dangling_read", "dangling_write", "double_free")
WORKLOADS = {
    "preload_rpc": "rb_rpc",
    "pool_conn_heavy": "rb_pool",
    "pool_conn_light": "rb_pool",
}

END_TO_END = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("overhead_x", "x"),
    ("guarded_frac", "frac"),
    ("rss_peak_mb", "MB"),
    ("vma_peak", "count"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("interpose.malloc_ns.p50", "ns"), ("interpose.malloc_ns.p99", "ns"),
    ("interpose.free_ns.p50", "ns"), ("interpose.free_ns.p99", "ns"),
    ("pool.init_ns.p50", "ns"),
    ("pool.destroy_ns.p50", "ns"), ("pool.destroy_ns.p99", "ns"),
    ("pool.alloc_ns.p50", "ns"), ("pool.alloc_ns.p99", "ns"),
    ("pool.free_ns.p50", "ns"), ("pool.free_ns.p99", "ns"),
    ("vm.mmap_per_req", "1/req"), ("vm.mprotect_per_req", "1/req"),
    ("vm.munmap_per_req", "1/req"), ("vm.pkey_mprotect_per_req", "1/req"),
    ("vm.mmap_ns.p99", "ns"), ("vm.mprotect_ns.p99", "ns"),
    ("vm.munmap_ns.p99", "ns"), ("vm.va_trims", "count"),
    ("engine.magazine_hit_frac", "frac"), ("engine.va_reuse_frac", "frac"),
    ("engine.remote_free_frac", "frac"), ("engine.protect_saved_frac", "frac"),
    ("engine.guard_failures", "count"),
    ("governor.transitions", "count"),
    ("governor.residency_frac.full", "frac"),
    ("governor.residency_frac.sampled", "frac"),
    ("governor.residency_frac.quarantine", "frac"),
    ("governor.residency_frac.unguarded", "frac"),
    ("governor.vma_estimate_ratio", "ratio"),
    ("proc.user_us_per_req", "us"), ("proc.sys_us_per_req", "us"),
    ("proc.minor_faults_per_req", "1/req"),
    ("proc.vol_ctxsw_per_req", "1/req"), ("proc.invol_ctxsw_per_req", "1/req"),
    ("span.request.self_us_per_req", "us"),
    ("span.alloc.self_us_per_req", "us"),
    ("span.free.self_us_per_req", "us"),
    ("span.pool_init.self_us_per_req", "us"),
    ("span.pool_destroy.self_us_per_req", "us"),
    ("span.stream.self_us_per_req", "us"),
    ("bench.tracing_overhead_frac", "frac"),
]


class BenchError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures (once) and builds the benchmark programs; returns the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("dpguard sources not found next to reqbench/")
    tree = os.path.join(build_dir(), "reqbench")
    os.makedirs(tree, exist_ok=True)
    log = os.path.join(tree, "build.log")
    with open(log, "a") as out:
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", tree,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=out, stderr=subprocess.STDOUT, check=True,
                           env=clean_env())
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", tree, "--target", "reqbench",
                        "-j", jobs], stdout=out, stderr=subprocess.STDOUT,
                       check=True, env=clean_env())
    return tree


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DPG_") and k != "LD_PRELOAD"}
    env.update(extra)
    return env


def run_program(cmd, env, timeout, log_path):
    with open(log_path, "ab") as err:
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        raise BenchError("exit %d: %s" % (p.returncode, " ".join(cmd)))
    lines = p.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("no output: " + " ".join(cmd))
    return json.loads(lines[-1])


class Bench:
    def __init__(self, tree, workload, seed, seconds, inject):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inject = inject
        self.preload = workload == "preload_rpc"
        self.exe = os.path.join(tree, WORKLOADS[workload])
        self.lib = os.path.join(tree, "dpguard", "src", "libdpg_preload.so")
        self.dir = os.path.join(build_dir(), "runs", workload)
        os.makedirs(self.dir, exist_ok=True)
        self.log = os.path.join(self.dir, "stderr.log")
        open(self.log, "w").close()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its %d s budget" % RUN_BUDGET_S)
        return left

    def args(self, policy):
        return [self.exe, "--workload", self.workload, "--policy", policy,
                "--seed", str(self.seed)]

    def guarded_env(self, metrics, trace):
        env = clean_env()
        if self.preload:
            env["LD_PRELOAD"] = self.lib
            env["DPG_METRICS_PATH"] = metrics
        if trace:
            env["DPG_TRACE"] = "1"
        return env

    def setup_s(self):
        """Median wall time from exec to 'ready' of a guarded process."""
        times = []
        for i in range(SETUP_RUNS):
            env = self.guarded_env(os.path.join(self.dir, "setup.jsonl"),
                                   False)
            t0 = time.perf_counter()
            p = subprocess.Popen(self.args("guarded") + ["--setup-only"],
                                 env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
            killer = threading.Timer(self.remaining(), p.kill)
            killer.start()
            try:
                line = p.stdout.readline()
                times.append(time.perf_counter() - t0)
                p.wait()
            finally:
                killer.cancel()
                if p.poll() is None:
                    p.kill()
                    p.wait()
                p.stdout.close()
            if line.strip() != b"ready" or p.returncode != 0:
                raise BenchError("set-up run failed")
        return statistics.median(times)

    def guarded(self, tag, trace):
        """One guarded run; returns its result with metrics snapshots."""
        sums = os.path.join(self.dir, tag + ".sums")
        metrics = os.path.join(self.dir, tag + ".metrics.jsonl")
        if os.path.exists(metrics):
            os.remove(metrics)
        cmd = self.args("guarded") + [
            "--seconds", repr(self.seconds),
            "--trace", "1" if trace else "0", "--out", sums]
        if trace:
            cmd += ["--spans", os.path.join(self.dir, tag + ".spans.tsv")]
        if self.preload:
            cmd.append("--snapshots")
        if self.inject:
            cmd += ["--inject", self.inject]
        r = run_program(cmd, self.guarded_env(metrics, trace),
                       self.remaining(), self.log)
        if self.preload:
            snaps = []
            with open(metrics) as f:
                for line in f:
                    d = json.loads(line)
                    if d.get("reason") == "sigusr1":
                        snaps.append(d)
            if len(snaps) < 2:
                raise BenchError("missing metrics snapshots")
            r["snap_start"], r["snap_end"] = snaps[0], snaps[1]
        r["sums_path"] = sums
        return r

    def native(self, sums, timed=True):
        """Native twin: replays the guarded run's requests and checks every
        checksum. When `timed`, NATIVE_RUNS processes each also time
        repeated passes over the timed range, and the median process is
        kept: a native process's time varies with how its threads land on
        the allocator's arenas, which repeating passes inside it cannot
        average out."""
        cmd = self.args("native") + ["--replay", sums]
        if not timed:
            return run_program(cmd + ["--verify-only"], clean_env(),
                              self.remaining(), self.log)
        runs = [run_program(cmd, clean_env(), self.remaining(), self.log)
                for _ in range(NATIVE_RUNS)]
        first = runs[0]
        first["busy_ns"] = statistics.median(r["busy_ns"] for r in runs)
        first["mismatches"] = max(r["mismatches"] for r in runs)
        first["null_allocs"] = max(r["null_allocs"] for r in runs)
        return first


def quiet(r, key):
    """Values of one per-second series of the timed phase, restricted to the
    seconds in which the hypervisor stole at most QUIET_STEAL more of the
    machine's CPU time than in the run's quietest second. On a shared host,
    stolen time preempts lock holders and stretches the tail of every worker
    queued behind them; selecting by the host's own steal counter keeps such
    bursts out without looking at the values measured."""
    w = r["windows"]
    floor = min(w["steal"])
    return [v for v, s in zip(w[key], w["steal"]) if s <= floor + QUIET_STEAL]


def rps(r):
    return statistics.median(quiet(r, "rps"))


def delta(r, name):
    return r["snap_end"]["counters"].get(name, 0) - \
        r["snap_start"]["counters"].get(name, 0)


def engine_stats(r):
    """Guard counters over the timed phase: per-pool sums on the pool
    workloads, the preloaded heap's counters otherwise."""
    if "pool_stats" in r:
        return r["pool_stats"]
    keys = ["allocations", "frees", "sampled_allocs", "guards_elided",
            "guard_failures", "magazine_hits", "shadow_pages_mapped",
            "shadow_pages_reused", "remote_frees", "protect_calls_saved"]
    s = {k: delta(r, "dpg_" + k) for k in keys}
    s["degraded_allocs"] = delta(r, "dpg_heap_degraded_allocs")
    return s


def ratio(a, b):
    return a / b if b else 0.0


def guarded_frac(r):
    s = engine_stats(r)
    served = (s["allocations"] + s["degraded_allocs"] + s["sampled_allocs"] +
              s["guards_elided"])
    return ratio(s["allocations"] - s["guard_failures"], served)


def failures(g, n):
    missed = [p for p in PROBES if not g["probes"].get(p)]
    failed = (g["null_allocs"] + g["bad_handoffs"] + n["mismatches"] +
              n["null_allocs"] + len(missed))
    return failed, g["requests_total"] + len(PROBES), missed


def end_to_end(g, n, setup):
    return {
        "throughput_rps": rps(g),
        "latency_p50_us": statistics.median(quiet(g, "p50_ns")) / 1e3,
        "latency_p99_us": statistics.median(quiet(g, "p99_ns")) / 1e3,
        # Per-request time: guarded from the median quiet second, native
        # from the median replay of the same timed requests.
        "overhead_x": (g["workers"] / rps(g)) /
                      (n["busy_ns"] / 1e9 / n["requests"]),
        "guarded_frac": guarded_frac(g),
        # VmHWM less the benchmark's own per-request records.
        "rss_peak_mb": (g["vm_hwm_kb"] - g["records_kb"]) / 1024.0,
        "vma_peak": float(g["vma_peak"]),
        "setup_s": setup,
    }


def per_layer(untraced, t):
    req = t["requests"]
    spans = t["spans"]
    roots = spans["traced_requests"]

    def span_p(name, q):
        return float(spans.get(name, {}).get(q + "_ns", 0.0))

    def self_us(*names):
        total = sum(spans.get(nm, {}).get("self_ns", 0.0) for nm in names)
        return ratio(total, roots) / 1e3

    hist = t["snap_end"]["histograms"]
    s = engine_stats(t)
    resid = {k: delta(t, "dpg_rung_residency_ns_" + k)
             for k in ("full", "sampled", "quarantine", "unguarded")}
    resid_total = sum(resid.values())
    ru = t["rusage"]
    m = {
        "interpose.malloc_ns.p50": span_p("interpose.malloc", "p50"),
        "interpose.malloc_ns.p99": span_p("interpose.malloc", "p99"),
        "interpose.free_ns.p50": span_p("interpose.free", "p50"),
        "interpose.free_ns.p99": span_p("interpose.free", "p99"),
        "pool.init_ns.p50": span_p("pool.init", "p50"),
        "pool.destroy_ns.p50": span_p("pool.destroy", "p50"),
        "pool.destroy_ns.p99": span_p("pool.destroy", "p99"),
        "pool.alloc_ns.p50": span_p("pool.alloc", "p50"),
        "pool.alloc_ns.p99": span_p("pool.alloc", "p99"),
        "pool.free_ns.p50": span_p("pool.free", "p50"),
        "pool.free_ns.p99": span_p("pool.free", "p99"),
        "vm.mmap_per_req": ratio(delta(t, "dpg_mmap_calls"), req),
        "vm.mprotect_per_req": ratio(delta(t, "dpg_mprotect_calls"), req),
        "vm.munmap_per_req": ratio(delta(t, "dpg_munmap_calls"), req),
        "vm.pkey_mprotect_per_req":
            ratio(delta(t, "dpg_pkey_mprotect_calls"), req),
        "vm.mmap_ns.p99": float(hist["mmap_ns"]["p99"]),
        "vm.mprotect_ns.p99": float(hist["mprotect_ns"]["p99"]),
        "vm.munmap_ns.p99": float(hist["munmap_ns"]["p99"]),
        "vm.va_trims": float(delta(t, "dpg_va_trims")),
        "engine.magazine_hit_frac":
            ratio(s["magazine_hits"], s["allocations"]),
        "engine.va_reuse_frac": ratio(
            s["shadow_pages_reused"],
            s["shadow_pages_reused"] + s["shadow_pages_mapped"]),
        "engine.remote_free_frac": ratio(s["remote_frees"], s["frees"]),
        "engine.protect_saved_frac":
            ratio(s["protect_calls_saved"], s["frees"]),
        "engine.guard_failures": float(s["guard_failures"]),
        "governor.transitions": float(delta(t, "dpg_degrade_transitions")),
        "governor.vma_estimate_ratio": ratio(
            t["snap_end"]["counters"].get("dpg_degrade_vma_estimate", 0),
            t["maps_end"]),
        "proc.user_us_per_req": ratio(ru["user_us"], req),
        "proc.sys_us_per_req": ratio(ru["sys_us"], req),
        "proc.minor_faults_per_req": ratio(ru["minflt"], req),
        "proc.vol_ctxsw_per_req": ratio(ru["nvcsw"], req),
        "proc.invol_ctxsw_per_req": ratio(ru["nivcsw"], req),
        "span.request.self_us_per_req": self_us("request"),
        "span.alloc.self_us_per_req":
            self_us("interpose.malloc", "interpose.realloc", "pool.alloc"),
        "span.free.self_us_per_req": self_us("interpose.free", "pool.free"),
        "span.pool_init.self_us_per_req": self_us("pool.init"),
        "span.pool_destroy.self_us_per_req": self_us("pool.destroy"),
        "span.stream.self_us_per_req": self_us("stream"),
        "bench.tracing_overhead_frac": 1.0 - ratio(rps(t), rps(untraced)),
    }
    for k in resid:
        m["governor.residency_frac." + k] = ratio(resid[k], resid_total)
    return m


def host_fingerprint(tree):
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags.update(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    try:
        with open("/proc/sys/vm/max_map_count") as f:
            max_map = int(f.read())
    except (OSError, ValueError):
        max_map = None
    cache = {}
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith("//"):
                    k, v = line.rstrip("\n").split("=", 1)
                    cache[k.split(":", 1)[0]] = v
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": min(len(os.sched_getaffinity(0)), 4),
        "pku": "pku" in flags,
        "ospke": "ospke" in flags,
        "kernel": platform.release(),
        "vm.max_map_count": max_map,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "commit": source_id(),
    }


def source_id():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "reqbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check faults (reqbench/selfcheck.py): flip one recorded checksum,
    # or skip the planted dangling read.
    ap.add_argument("--inject", choices=("corrupt", "probe"), default="")
    a = ap.parse_args()

    try:
        tree = build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print("reqbench: build failed: %s" % e, file=sys.stderr)
        return 2

    b = Bench(tree, a.workload, a.seed, a.seconds, a.inject)
    host = host_fingerprint(tree)
    print("# host " + json.dumps(host, sort_keys=True))
    try:
        if a.trace:
            untraced = b.guarded("untraced", False)
            g = b.guarded("traced", True)
            nu = b.native(untraced["sums_path"], timed=False)
            n = b.native(g["sums_path"], timed=False)
            fu, au, _ = failures(untraced, nu)
            failed, attempted, missed = failures(g, n)
            failed, attempted = failed + fu, attempted + au
            metrics = per_layer(untraced, g)
        else:
            setup = b.setup_s()
            g = b.guarded("untraced", False)
            n = b.native(g["sums_path"])
            failed, attempted, missed = failures(g, n)
            metrics = end_to_end(g, n, setup)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("reqbench: run failed: %s (see %s)" % (e, b.log),
              file=sys.stderr)
        return 1

    lat = g["latency"]
    steal = g["windows"]["steal"]
    print("# %s seed=%d workers=%d requests=%d latency_samples=%d; medians "
          "over the %d of %d seconds with host steal within %.0f%% of the "
          "quietest (steal min %.1f%%, median %.1f%%, max %.1f%%); "
          "native passes per process=%d" % (
              a.workload, a.seed, g["workers"], g["requests"], lat["count"],
              len(quiet(g, "steal")), len(steal), 100 * QUIET_STEAL,
              100 * min(steal), 100 * statistics.median(steal),
              100 * max(steal), n["passes"]))
    for name, unit in (PER_LAYER if a.trace else END_TO_END):
        print("%-36s %16.6f %s" % (name, metrics[name], unit))
    print("%-36s %16.6f %s" % ("failed_frac", ratio(failed, attempted),
                               "frac"))
    if missed:
        print("# missed detection probes: " + ", ".join(missed))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if a.trace else END_TO_END)},
    }
    with open(os.path.join(b.dir, "result-trace%d.json" % a.trace), "w") as f:
        json.dump(dict(result, host=host, workload=a.workload, seed=a.seed,
                       guarded=g, native=n), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
