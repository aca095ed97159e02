#!/usr/bin/env python3
"""Host-time benchmark of the vessel simulator.

Run from the repository root:

    python3 hostbench/run.py --workload colo --seed 1 --seconds 30 --trace 0

Builds hostbench/hostbench.exe from the checkout's sources, then runs
the workload's fixed batch again and again, each time in a fresh
process (as a user runs vessel-sim), until --seconds have passed. Every
batch's simulated output is digested per sweep point and compared with
hostbench/reference.json; a mismatch, or a checker violation, is a
failed operation.

--trace 0 prints the end-to-end metrics (medians over the batches):
setup_s, wall_s, cpu_s, events_per_s, peak_rss_mb.
--trace 1 runs one untraced batch, one batch with the program's probes
live into counting sinks, and the per-layer drivers, and prints the
per-layer metrics and the share.* table. Both write the benchmark's own
spans as Perfetto JSON under .bench_build/hostbench/ (readable by
scripts/trace_summary.py).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Workloads: colo, fleet, mem, and chaos (not in BENCHMARK.json;
see hostbench/README.md).
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

WORKLOADS = ["colo", "fleet", "mem", "chaos"]
MIN_REPS = 3
DOMAINS = 2  # worker domains hostbench.exe runs every batch with
DRIVER_MACHINES = 9  # machines in the cluster.epoch_ns driver

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run_batch(workload, seed, traced=False):
    args = ["run", "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--traced")
    lines, t0, t1, ru = common.spawn(args)
    if len(lines) < 2:
        raise common.BenchError("hostbench.exe %s printed no result" % " ".join(args))
    (ready_line, t_ready), (result_line, _) = lines[0], lines[-1]
    ready = json.loads(ready_line)
    r = json.loads(result_line)
    # Launch up to the process's first instruction, plus the median of
    # its repeated set-up builds.
    r["setup_s"] = float(ready["launched"]) - t0 + median(ready["builds"])
    r["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    r["t_spawn"], r["t_ready"], r["t_exit"] = t0, t_ready, t1
    return r


def check_batch(workload, seed, r, reference):
    """Count failed sweep points: digest differs from the reference, or
    a checker reported a violation."""
    expected = reference.get(workload, {}).get(str(seed))
    if expected is None:
        raise common.BenchError("no reference for %s seed %d" % (workload, seed))
    points = r["points"]
    failures = []
    for i, p in enumerate(points):
        if i >= len(expected) or p["digest"] != expected[i]:
            failures.append("%s: output differs from reference" % p["label"])
        elif p["violations"] > 0:
            failures.append("%s: %d checker violations" % (p["label"], p["violations"]))
    for i in range(len(points), len(expected)):
        failures.append("point %d missing" % i)
    return max(len(points), len(expected)), failures


def median(xs):
    return statistics.median(xs)


# ---------------------------------------------------------------------
# Spans -> Perfetto JSON


def span_events(spans, pid, t_base):
    evs = []
    for name, a, b, tid in spans:
        ts_a = (a - t_base) * 1e6
        ts_b = (b - t_base) * 1e6
        # B sorts after E at equal times; longer spans open first and
        # close last, so nesting holds per track.
        evs.append(((ts_a, 1, -(ts_b - ts_a)), {"ph": "B", "name": name, "pid": pid, "tid": tid, "ts": ts_a}))
        evs.append(((ts_b, 0, ts_b - ts_a), {"ph": "E", "pid": pid, "tid": tid, "ts": ts_b}))
    return evs


def write_trace(path, t_base, own_spans, children):
    evs = span_events(own_spans, 0, t_base)
    meta = [{"ph": "M", "name": "process_name", "pid": 0, "args": {"name": "run.py"}}]
    for pid, (label, spans) in enumerate(children, start=1):
        meta.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": label}})
        evs += span_events(spans, pid, t_base)
    evs.sort(key=lambda e: e[0])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": meta + [e for _, e in evs], "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------
# Modes


def run_untraced(workload, seed, seconds, reference, state):
    reps = []
    while True:
        r = run_batch(workload, seed)
        attempted, failures = check_batch(workload, seed, r, reference)
        state.record(r, "batch %d" % len(reps), attempted, failures)
        reps.append(r)
        elapsed = r["t_exit"] - state.t_start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    if len({r["events"] for r in reps}) != 1:
        state.problems.append("simulated event counts differ between identical batches")
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "wall_s": median([r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "events_per_s": median([r["events"] / r["wall_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }, E2E_UNITS


def per_layer(u, t, layers):
    """Per-layer metrics from an untraced batch [u], a traced batch [t]
    and the layer drivers' ns/op table."""
    counters = t["metrics"]["counters"]
    probes = t["probe_counts"]
    extra = t["extra"]
    c = lambda name: counters.get(name, 0)  # noqa: E731
    m = {}
    unit = {}

    def put(name, value, u_):
        m[name] = value
        unit[name] = u_

    # One cluster.epoch instant per machine per lockstep epoch; the
    # driver's epoch_ns is for 9 machines, so a machine-epoch costs 1/9.
    machine_epochs = probes.get("cluster.epoch", 0)
    barrier_ns = machine_epochs * layers["cluster.epoch_ns"] / DRIVER_MACHINES
    put("engine.events", t["events"], "count")
    put("engine.dispatch_ns", layers["engine.dispatch_ns"], "ns")
    put("engine.queue.churn_ns", layers["engine.queue.churn_ns"], "ns")
    put("engine.queue.pool_grown", c("engine.queue.pool.grown"), "count")
    put("engine.pool.map_ns", layers["engine.pool.map_ns"], "ns")
    put("engine.pool.busy_frac", u["cpu_s"] / (u["wall_s"] * DOMAINS), "ratio")
    put("gc.minor_words_per_event", u["minor_words"] / max(1, u["events"]), "words")
    put("gc.major_collections", u["major_collections"], "count")
    put("uproc.switches", c("uproc.switches"), "count")
    put("uproc.dispatches", c("uproc.dispatches"), "count")
    put("uproc.preempts", c("uproc.preempts"), "count")
    put("uproc.switch_host_ns", layers["uproc.switch_host_ns"], "ns")
    put("uproc.core_index.place_ns", layers["uproc.core_index.place_ns"], "ns")
    put("uproc.call_gate.cross_ns", layers["uproc.call_gate.cross_ns"], "ns")
    put("sched.vessel.wakes", c("sched.vessel.wakes"), "count")
    put("sched.vessel.preempts", c("sched.vessel.preempts"), "count")
    put("sched.iok.preempts", c("sched.iok.preempts"), "count")
    put("hw.uintr.sends", probes.get("uintr.send", 0), "count")
    put("hw.ipi.sent", c("hw.ipi.sent"), "count")
    put("hw.pkru.writes", c("hw.pkru.writes"), "count")
    put("hw.uintr.senduipi_ns", layers["hw.uintr.senduipi_ns"], "ns")
    put("hw.pkru.set_ns", layers["hw.pkru.set_ns"], "ns")
    put("hw.cache.access_run_ns", layers["hw.cache.access_run_ns"], "ns")
    put("hw.membw.consume_ns", layers["hw.membw.consume_ns"], "ns")
    put("hw.inject.faults", extra.get("hw.inject.faults", 0), "count")
    put("mem.image_load_ns", layers["mem.image_load_ns"], "ns")
    put("stats.histogram.record_ns", layers["stats.histogram.record_ns"], "ns")
    put("workloads.frontend.served", extra.get("workloads.frontend.served", 0), "count")
    put("obs.traced_wall_ratio", t["wall_s"] / u["wall_s"], "ratio")
    put("obs.probe.dormant_overhead_pct", layers["obs.probe.dormant_overhead_pct"], "%")
    put("obs.probe.record_ns", layers["obs.probe.record_ns"], "ns")
    put("check.runs", extra.get("check.runs", 0), "count")
    put("check.violating_runs", extra.get("check.violating_runs", 0), "count")
    put("check.probe_events", extra.get("check.probe_events", 0), "count")
    put("check.handle_ns", layers["check.handle_ns"], "ns")
    put("cluster.epochs", machine_epochs, "count")
    put("cluster.net.delivered", probes.get("cluster.deliver", 0), "count")
    put("cluster.epoch_ns", layers["cluster.epoch_ns"], "ns")
    put("cluster.barrier_share", barrier_ns * 1e-9 / u["wall_s"], "ratio")
    put("experiments.points", len(u["points"]), "count")

    # Estimated share of the untraced batch's CPU time per layer: count
    # x driver ns/op. A switch's own events are charged to the engine,
    # so the uprocess line is the switch path's self cost.
    ns = 1e-9 / u["cpu_s"]
    switch_self = max(
        0.0,
        layers["uproc.switch_host_ns"] - layers["uproc.switch_events"] * layers["engine.dispatch_ns"],
    )
    shares = {
        "share.engine": t["events"] * layers["engine.dispatch_ns"],
        "share.uprocess": c("uproc.switches") * switch_self,
        "share.placement": c("sched.vessel.wakes") * layers["uproc.core_index.place_ns"],
        "share.hw": probes.get("uintr.send", 0) * layers["hw.uintr.senduipi_ns"]
        + c("hw.pkru.writes") * layers["hw.pkru.set_ns"],
        "share.stats": probes.get("req.done", 0) * layers["stats.histogram.record_ns"],
        "share.cluster": barrier_ns,
        "share.check": extra.get("check.probe_events", 0)
        * (layers["check.handle_ns"] + layers["obs.probe.record_ns"]),
    }
    for k, v in shares.items():
        put(k, v * ns, "ratio")
    put("share.unattributed", 1.0 - sum(v * ns for v in shares.values()), "ratio")
    return m, unit


def run_traced(workload, seed, reference, state):
    u = run_batch(workload, seed)
    state.record(u, "untraced batch", *check_batch(workload, seed, u, reference))
    t = run_batch(workload, seed, traced=True)
    state.record(t, "traced batch", *check_batch(workload, seed, t, reference))
    if t["events"] != u["events"]:
        state.problems.append("traced and untraced batches executed different event counts")
    lines, t0, t1, _ = common.spawn(["layers"])
    out = json.loads(lines[-1][0])
    state.children.append(("layer drivers", out["spans"]))
    state.own_spans.append(("layer drivers", t0, t1, 0))
    return per_layer(u, t, out["layers"])


class State:
    def __init__(self, t_start):
        self.t_start = t_start
        self.attempted = 0
        self.failures = []  # failed operations
        self.problems = []  # other incorrect results
        self.own_spans = []
        self.children = []

    def record(self, r, label, attempted, failures):
        self.attempted += attempted
        self.failures += failures
        self.own_spans.append((label + " set-up", r["t_spawn"], r["t_ready"], 0))
        self.own_spans.append((label, r["t_spawn"], r["t_exit"], 0))
        self.children.append((label, r["spans"]))


def main():
    ap = argparse.ArgumentParser(description="Host-time benchmark of the vessel simulator")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    t_start = time.time()
    state = State(t_start)
    seed = common.sim_seed(args.seed)
    try:
        reference = common.load_reference()
        common.build()
        state.own_spans.append(("build", t_start, time.time(), 0))
        if args.trace:
            metrics, units = run_traced(args.workload, seed, reference, state)
        else:
            metrics, units = run_untraced(args.workload, seed, args.seconds, reference, state)
    except common.BenchError as e:
        common.fail(e)

    trace_path = os.path.join(
        common.OUT_DIR, "trace-%s-seed%d-t%d.json" % (args.workload, args.seed, args.trace)
    )
    write_trace(trace_path, t_start, state.own_spans, state.children)

    failed = len(state.failures)
    for f in state.failures + state.problems:
        print("FAILED " + f)
    print("workload %s, simulation seed %d, %d operations, %d failed, error_rate %.4f"
          % (args.workload, seed, state.attempted, failed, failed / max(1, state.attempted)))
    for name, v in metrics.items():
        print("%-32s %16.6g %s" % (name, v, units[name]))
    print("trace: " + trace_path)
    print(json.dumps({
        "correct": failed == 0 and not state.problems,
        "attempted": state.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
