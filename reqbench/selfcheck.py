#!/usr/bin/env python3
"""Self-check of the request-level benchmark.

    python3 reqbench/selfcheck.py

Runs reqbench/run.py briefly and checks that:
  - a short run of each workload is correct, has no failed operation, and
    reports exactly the end-to-end metrics BENCHMARK.json lists;
  - a short traced run reports exactly the per-layer metrics it lists;
  - a corrupted response checksum counts as a failed operation;
  - a suppressed detection probe counts as a failed operation, on the
    preload path and on the pool path.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace=0, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd[2:]),
                                                   p.returncode,
                                                   p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("result keys: %s" % sorted(result))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = sorted(m["name"] for m in spec["end_to_end"])
    layers = sorted(m["name"] for m in spec["per_layer"])
    checks = []

    def check(name, cond, detail=""):
        checks.append(cond)
        print("%s  %s %s" % ("ok  " if cond else "FAIL", name, detail),
              flush=True)

    for w in spec["workloads"]:
        r = run(w["name"])
        check(w["name"] + " short run is correct",
              r["correct"] and r["failed"] == 0 and r["attempted"] > 3,
              "(attempted %d, failed %d)" % (r["attempted"], r["failed"]))
        check(w["name"] + " reports the end-to-end metrics",
              sorted(r["metrics"]) == e2e)
        check(w["name"] + " metrics are positive",
              all(m["value"] > 0 for m in r["metrics"].values()))

    r = run("preload_rpc", trace=1)
    check("traced run is correct", r["correct"] and r["failed"] == 0)
    check("traced run reports the per-layer metrics",
          sorted(r["metrics"]) == layers)

    for workload, inject in (("pool_conn_light", "corrupt"),
                             ("preload_rpc", "corrupt"),
                             ("preload_rpc", "probe"),
                             ("pool_conn_heavy", "probe")):
        r = run(workload, inject=inject)
        check("%s --inject %s counts as a failure" % (workload, inject),
              not r["correct"] and r["failed"] >= 1,
              "(failed %d)" % r["failed"])

    print("%d/%d checks passed" % (sum(checks), len(checks)))
    return 0 if all(checks) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.TimeoutExpired) as e:
        print("FAIL  %s" % e)
        sys.exit(1)
