"""Runs one benchmark workload in this process and prints its result.

`run.py` starts this script in a fresh process per workload, with the BLAS
thread variables already set, so the process peak RSS belongs to that
workload alone. Usage (from the repository root, with `src` on PYTHONPATH):

    python3 perfbench/worker.py --workload german --seed 1 --seconds 25 --trace 0

With --trace 0 the calls run untraced and the end-to-end metrics are
reported. With --trace 1 traced and untraced calls alternate: the per-layer
metrics come from the traced ones, the tracing overhead from the difference.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import fairgraph
from fairgraph import data
from fairgraph.autodiff import NeighborAggregator
from fairgraph.errors import FairGraphError

import speed
import tracing
from workloads import WORKLOADS, check_output, fingerprint, make_inputs, quality, \
    run_call

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
QUALITY = ("test_bacc", "test_auc", "test_dsp", "test_deo")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fairgraph.verify; "
                "print(time.perf_counter() - t)")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(seed):
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "FAIRGRAPH_THREADS": os.environ.get("FAIRGRAPH_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def load_for_training(spec):
    """What `fairgraph train --dataset` does before training: load the
    dataset and build the neighbour aggregator."""
    graph, table = data.load_dataset(spec)
    NeighborAggregator(graph)
    return graph, table


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def import_seconds():
    """Time to import fairgraph.verify in a fresh interpreter: the set-up
    that `fairgraph verify` pays before its suites run."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


class Tally:
    """Attempted and failed operations, with the checks each failure broke."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.first_output = None

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(f"operation {self.attempted}: {p}" for p in problems)

    def record(self, call):
        """Run one workload call, check its output, and return its wall time
        (None when it raised)."""
        self.attempted += 1
        try:
            seconds, out = timed(call)
        except FairGraphError as exc:
            self.fail([f"{type(exc).__name__}: {exc}"])
            return None
        found = check_output(self.wl, out)
        key = fingerprint(self.wl, out)
        if self.reference is None:
            self.reference, self.first_output = key, out
        elif key != self.reference:
            found.append("output differs from the first call with the same seed")
        if found:
            self.fail(found)
        return seconds


def measure(seconds, calls_per_round, min_rounds):
    """Repeat rounds of calls until another round would pass `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for call in calls_per_round:
            call()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def per_layer_values(wl, rec, reps, untraced_runs):
    """Per-layer metrics, per traced repetition (one set-up plus one
    workload call)."""
    totals = tracing.span_totals(rec.spans)

    def per_rep(name, field):
        return totals.get(name, (0, 0.0, 0.0))[field] / reps

    values = {}
    for name in ("data.load_dataset", "graph.fair_edge_remove", "graph.from_edges",
                 "graph.remove_edges", "autodiff.row_mean_neighbors", "autodiff.grad",
                 "autodiff.NeighborAggregator", "model.encode", "model.predict",
                 "losses.pred_loss", "losses.inv_loss", "losses.suf_loss",
                 "losses.sc_loss", "losses.env_loss", "losses.select_counterfactuals",
                 "losses.sample_negative_edges", "metrics.evaluate_predictions",
                 "pipeline.pretrain", "pipeline.run_phase1", "pipeline.train_full",
                 "verify.identity_suite", "verify.sign_suite", "verify.budget_suite"):
        values[f"{name}.calls"] = (per_rep(name, 0), "count")
        values[f"{name}.s"] = (per_rep(name, 1), "s")
    values["pipeline.train_full.self_s"] = (per_rep("pipeline.train_full", 2), "s")

    singles = [s for s in rec.spans if s[1] == "pipeline.run_single"]
    by_id = {s[0]: s for s in rec.spans}
    root_s = per_rep(wl.root_span, 1)
    values["pipeline.run_single.s"] = (
        sum(s[3] - s[2] for s in singles) / len(singles) if singles else 0.0, "s")
    workers = min(int(os.environ.get("FAIRGRAPH_THREADS", "1")), wl.n_seeds)
    values["pipeline.pool.busy_ratio"] = (
        sum(s[3] - s[2] for s in singles) / reps / (workers * root_s), "ratio")
    values["pipeline.pool.wait_s"] = (sum(
        s[2] - by_id[s[4]][2] for s in singles
        if s[4] is not None and by_id[s[4]][1] == "pipeline.run_experiment") / reps, "s")
    for phase in ("pretrain", "edit", "train"):
        values[f"pipeline.rss_hwm_mb.{phase}"] = (rec.phase_rss_mb.get(phase, 0.0), "MiB")

    counts = rec.counts
    values["graph.edges_removed"] = (counts["edges_removed"] / reps, "count")
    values["losses.sc_loss.pairs"] = (counts["sc_pairs"], "count")
    values["losses.cf_fill"] = (
        counts["cf_pairs"] / counts["cf_slots"] if counts["cf_slots"] else 0.0, "ratio")
    values["verify.cases"] = (counts["verify_cases"] / reps, "count")
    values["model.encode.per_epoch"] = (
        per_rep("model.encode", 0) / wl.epochs_per_call() if wl.trains else 0.0, "count")

    untraced = statistics.fmean(untraced_runs)
    values["trace.root_s"] = (root_s, "s")
    values["trace.root_self_s"] = (per_rep(wl.root_span, 2), "s")
    values["trace.untraced_run_s"] = (untraced, "s")
    values["trace.overhead_s"] = (root_s - untraced, "s")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    end_to_end, per_layer = declared_metrics()
    os.makedirs(SCRATCH, exist_ok=True)
    info = {"workload": wl.name, "fairgraph": os.path.dirname(fairgraph.__file__)}

    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH)
    try:
        setup = speed.Scaled()
        if wl.trains:
            graph0, table0, info["noise_ceiling_bacc"] = make_inputs(wl, args.seed)
            spec = data.write_dataset(workdir, graph0, table0)
            for _ in range(SETUP_REPEATS):
                seconds, (graph, table) = timed(load_for_training, spec)
                setup.add(seconds)
            round_trip_ok = (graph.edges == graph0.edges
                             and np.array_equal(table.features, table0.features)
                             and np.array_equal(table.labels.class_label,
                                                table0.labels.class_label)
                             and np.array_equal(table.labels.sensitive,
                                                table0.labels.sensitive))
            info["m"] = graph.m
        else:
            graph = table = spec = None
            round_trip_ok = True
            for _ in range(SETUP_REPEATS):
                setup.add(import_seconds())

        tally = Tally(wl)
        if not round_trip_ok:
            tally.attempted += 1
            tally.fail(["loaded dataset differs from the generated one"])
        runs = speed.Scaled(threads=int(os.environ.get("FAIRGRAPH_THREADS", "1")))

        def untraced_call():
            seconds = tally.record(lambda: run_call(wl, graph, table, args.seed))
            if seconds is not None:
                runs.add(seconds)

        if args.trace:
            rec = tracing.Recorder(run_id=args.seed)

            def traced_call():
                restore = tracing.instrument(rec)
                try:
                    if wl.trains:
                        load_for_training(spec)
                    tally.record(lambda: run_call(wl, graph, table, args.seed))
                finally:
                    restore()

            rounds = measure(args.seconds, [traced_call, untraced_call], min_rounds=1)
        else:
            measure(args.seconds, [untraced_call], min_rounds=2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = tracing.rss_hwm_mb()
    info["quality"] = quality(wl, tally.first_output) if tally.first_output else {}
    info["env"] = environment(args.seed)
    info["calls"] = tally.attempted
    info["problems"] = tally.problems
    correct = not tally.problems

    if args.trace:
        rec.write(os.path.join(SCRATCH, f"trace-{wl.name}-seed{args.seed}.json"))
        values = per_layer_values(wl, rec, rounds, runs.raw) if correct else {}
        for name in QUALITY:
            values[f"metrics.{name}"] = (info["quality"].get(name, 0.0), "%")
        declared = per_layer
    else:
        for name, scaled in (("setup", setup), ("run", runs)):
            info[f"{name}_wall_s"] = scaled.raw
            info[f"{name}_probe_s"] = scaled.probes
        values = {"setup_s": (statistics.median(setup.scaled()), "s"),
                  "peak_rss_mb": (peak_rss_mb, "MiB"),
                  "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio")}
        if runs.raw:
            values["run_s"] = (statistics.median(runs.scaled()), "s")
        declared = end_to_end
    metrics = {}
    if all(m["name"] in values for m in declared):
        for m in declared:
            value, unit = values[m["name"]]
            if unit != m["unit"]:
                raise SystemExit(f"metric {m['name']}: unit {unit} is not the "
                                 f"declared {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}

    print(json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{wl.name:>10}  {name:<40} {metric['value']:.6g} {metric['unit']}")
    for problem in tally.problems:
        print(f"{wl.name:>10}  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
