#!/usr/bin/env python3
"""Record and confirm the reference outputs the benchmark checks against.

Run from the repository root:

    python3 hostbench/reference.py record [--workloads colo,fleet,mem,chaos]
    python3 hostbench/reference.py confirm [--seeds 42,47]

record runs every workload's batch at -j 1 for each simulation seed in
common.SEEDS and writes the per-point digests to hostbench/reference.json.

confirm ties those digests to vessel-sim: for fleet, mem and chaos it
renders the digested rows with the same library print functions
vessel-sim uses and requires the text to equal vessel-sim's stdout for
the same seed, byte for byte, and the digests to equal the reference.
colo has no vessel-sim subcommand (it is a custom run_colocation
sweep); its digests are confirmed against a -j 2 batch instead.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

VESSEL_SIM = os.path.join(common.BUILD_DIR, "default", "bin", "vessel_sim.exe")

# vessel-sim invocations printing what `hostbench.exe print` prints.
VESSEL_SIM_ARGS = {
    "fleet": [["fleet"]],
    "mem": [["fig11"], ["fig13a", "--cores", "4"], ["fig13b"]],
    "chaos": [["check", "--scenario", "all", "--profile", "chaos", "--seeds", "8"]],
}


def record(workloads):
    ref = {}
    if os.path.exists(common.REFERENCE):
        ref = common.load_reference()
    for w in workloads:
        ref[w] = {}
        for seed in common.SEEDS:
            lines, _, _, _ = common.spawn(["reference", "--workload", w, "--seed", str(seed)])
            ref[w][str(seed)] = json.loads(lines[-1][0])
            print("%s seed %d: %d points" % (w, seed, len(ref[w][str(seed)])), flush=True)
    with open(common.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def confirm(seeds, jobs):
    ref = common.load_reference()
    ok = True
    for seed in seeds:
        for w in ["fleet", "mem", "chaos", "colo"]:
            r = subprocess.run(
                [common.exe(), "print", "--workload", w, "--seed", str(seed), "--jobs", str(jobs)],
                capture_output=True, text=True, check=True)
            digests_ok = json.loads(r.stderr.strip().splitlines()[-1]) == ref[w][str(seed)]
            if w in VESSEL_SIM_ARGS:
                vs = "".join(
                    subprocess.run(
                        [VESSEL_SIM] + a + ["--seed", str(seed), "-j", str(jobs)],
                        capture_output=True, text=True).stdout
                    for a in VESSEL_SIM_ARGS[w])
                text_ok = vs == r.stdout
            else:
                text_ok = True
            ok = ok and digests_ok and text_ok
            print("seed %d %-6s -j %d: digests %s, text %s" % (
                seed, w, jobs, "match" if digests_ok else "DIFFER",
                ("equals vessel-sim" if text_ok else "DIFFERS from vessel-sim")
                if w in VESSEL_SIM_ARGS else "(no vessel-sim subcommand)"), flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["record", "confirm"])
    ap.add_argument("--workloads", default="colo,fleet,mem,chaos")
    ap.add_argument("--seeds", default="42")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    try:
        if args.mode == "record":
            common.build()
            record(args.workloads.split(","))
        else:
            common.build(["./%s/hostbench.exe" % common.BENCH_DIR, "./bin/vessel_sim.exe"])
            if not confirm([int(s) for s in args.seeds.split(",")], args.jobs):
                sys.exit(1)
    except common.BenchError as e:
        common.fail(e)


if __name__ == "__main__":
    main()
