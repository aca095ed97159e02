#!/usr/bin/env python3
"""Steadiness report for the host-time benchmark.

Run from the repository root:

    python3 hostbench/steady.py --workloads colo,fleet,mem --runs 10
    python3 hostbench/steady.py --workloads fleet --runs 5 --compare FILE
    python3 hostbench/steady.py --workloads colo --runs 2 --trace 1

Runs hostbench/run.py --runs times per workload, each with another
--seed (seed-base, seed-base+1, ...) and the run_seconds of
BENCHMARK.json, and prints per metric the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against
the metric's bound: "steady" below a third of the bound, "ok" below
the bound. setup_s's spread is informational; its median, like every
other, is what --compare checks against an earlier report (second
median no worse than the first by more than the bound).

With --trace 1 every seed runs twice and every count metric but the
GC's must repeat exactly between the two runs of one seed.

Each report is saved as JSON under .bench_build/hostbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    r = subprocess.run(cmd, capture_output=True, text=True)
    took = time.time() - t0
    if r.returncode != 0:
        raise common.BenchError("%s failed (%d): %s" % (" ".join(cmd), r.returncode, r.stderr[-2000:]))
    out = json.loads(r.stdout.strip().splitlines()[-1])
    return out, took


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(spec, workloads, runs, seed_base, trace, compare):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    saved = {}
    previous = {}
    if compare:
        with open(compare) as f:
            previous = json.load(f)
    ok = True
    for w in workloads:
        values = {}
        counts = {}
        failed = attempted = 0
        for i in range(runs):
            seed = seed_base + i
            reps = 2 if trace else 1
            for k in range(reps):
                out, took = run_once(spec, w, seed, trace)
                attempted += out["attempted"]
                failed += out["failed"]
                print("  %s seed %d%s: %.1fs, correct=%s, failed %d/%d" % (
                    w, seed, " (repeat)" if k else "", took, out["correct"],
                    out["failed"], out["attempted"]), flush=True)
                for name, m in out["metrics"].items():
                    if k == 0:
                        values.setdefault(name, []).append(m["value"])
                    if m["unit"] == "count" and not name.startswith("gc."):
                        counts.setdefault((name, seed), set()).add(m["value"])
        print("%s: %d runs, error_rate %d/%d" % (w, runs, failed, attempted))
        print("  %-32s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        saved[w] = {}
        for name, vs in values.items():
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if name == "setup_s":
                    verdict = "(spread informational)"
                elif spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "ok"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                old = previous.get(w, {}).get(name)
                if old is not None:
                    worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                    drift_ok = worse <= bound
                    ok = ok and drift_ok
                    verdict += ", vs earlier median %.6g: %+.1f%% %s" % (
                        old, 100 * worse, "ok" if drift_ok else "WORSE THAN BOUND")
            saved[w][name] = med
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                name, med, q1, q3, spread, "" if bound is None else bound, verdict))
        for (name, seed), seen in sorted(counts.items()):
            if trace and len(seen) != 1:
                print("  COUNT NOT REPEATED: %s seed %d: %s" % (name, seed, sorted(seen)))
                ok = False
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, "steady-t%d-%d.json" % (trace, int(time.time())))
    with open(path, "w") as f:
        json.dump(saved, f, indent=1)
    print("report saved: " + path)
    return ok


def main():
    ap = argparse.ArgumentParser(description="Steadiness report for the host-time benchmark")
    ap.add_argument("--workloads", default=None, help="comma list (default: BENCHMARK.json's)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", help="earlier report JSON to compare medians against")
    args = ap.parse_args()
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    try:
        ok = report(spec, workloads, args.runs, args.seed_base, args.trace, args.compare)
    except common.BenchError as e:
        common.fail(e)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
