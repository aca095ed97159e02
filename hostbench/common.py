"""Shared helpers for the host-time benchmark scripts: building the
benchmark binary from the checkout's sources and running it."""

import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "hostbench")
REFERENCE = os.path.join(HERE, "reference.json")

# Simulation seeds with recorded reference outputs; --seed n selects
# SEEDS[n mod len(SEEDS)].
SEEDS = list(range(42, 52))

# A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def sim_seed(seed):
    return SEEDS[seed % len(SEEDS)]


def exe():
    return os.path.join(BUILD_DIR, "default", BENCH_DIR, "hostbench.exe")


def build(targets=None):
    """Build the benchmark (and any extra dune targets) from source in the
    current directory, which must be the repository root."""
    targets = targets or ["./%s/hostbench.exe" % BENCH_DIR]
    # No shared dune cache: the build reads and writes only the checkout.
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
        "--cache=disabled",
    ] + targets
    try:
        os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-4000:])


def spawn(args):
    """Run the benchmark binary; return (stdout lines with their arrival
    times, spawn time, exit time, rusage)."""
    t0 = time.time()
    p = subprocess.Popen([exe()] + args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    lines = []
    try:
        for line in p.stdout:
            lines.append((line, time.time()))
    finally:
        _, status, ru = os.wait4(p.pid, 0)
        timer.cancel()
        p.stdout.close()
    if status != 0:
        raise BenchError("hostbench.exe %s exited with status %d" % (" ".join(args), status))
    return lines, t0, time.time(), ru


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (REFERENCE, e))


def fail(msg):
    print("hostbench: " + str(msg), file=sys.stderr)
    sys.exit(2)
