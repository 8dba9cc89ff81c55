"""Spans around fairgraph's public entry points, recorded from outside the
package by rebinding the names that callers look up.

Each span holds (id, name, start, end, parent id, run id, thread id). Spans
stay in memory; `Recorder.write` saves them when the run ends. A span opened
on a thread with no open span of its own (a pool worker) takes the open root
span as its parent.

Where each name is rebound, and why there:
  * `pipeline` imports `encode`, `predict`, the losses, counterfactual
    selection, `evaluate_predictions` and `fair_edge_remove` by name, so
    they are wrapped as `fairgraph.pipeline.<name>`; `verify` likewise
    holds its own `fair_edge_remove` and calls its suites through module
    globals.
  * `model.encode` looks up `ad.row_mean_neighbors` at call time, and the
    pipeline calls `ad.grad`, so both are wrapped in `fairgraph.autodiff`.
    The `row_mean_neighbors` span covers the forward pass only; the whole
    reverse pass is the one `autodiff.grad` span.
  * `Graph.from_edges`, `Graph.remove_edges` and `NeighborAggregator.__init__`
    are replaced on their classes, so every binding of the class sees them.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time

import numpy as np

from fairgraph import autodiff, data, graph, pipeline, verify


def rss_hwm_mb():
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {"edges_removed": 0, "cf_pairs": 0, "cf_slots": 0,
                       "sc_pairs": 0, "verify_cases": 0}
        self.phase_rss_mb = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # counts are updated from pool threads
        self._root = None

    def wrap(self, name, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` runs
        once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is None:
                    self._root = None
                self.spans.append((sid, name, start, end, parent, self.run_id,
                                   threading.get_ident()))
            if after is not None:
                after(args, out)
            return out

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "run_id", "thread"],
                       "spans": self.spans}, fh)

    # -- hooks that count work where it happens --------------------------------

    def _add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def _after_edit(self, args, out):
        self._add("edges_removed", len(out[1].removed_edges))

    def _after_select(self, args, cf):
        self._add("cf_pairs", sum(len(ids) for ids in cf.e_ids)
                  + sum(len(ids) for ids in cf.c_ids))
        self._add("cf_slots", 2 * len(cf.e_ids) * cf.k)

    def _after_sc(self, args, out):
        n_l = int(np.count_nonzero(args[2]))
        with self._lock:
            self.counts["sc_pairs"] = max(self.counts["sc_pairs"], n_l * n_l)

    def _after_suite(self, args, report):
        self._add("verify_cases", report.cases_checked)

    def _phase_hwm(self, phase):
        def after(args, out):
            self.phase_rss_mb.setdefault(phase, rss_hwm_mb())
        return after


def instrument(rec: Recorder):
    """Rebind fairgraph's entry points to record into `rec`; returns a
    function that restores the originals."""
    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_fn(owners, attr, name, after=None):
        wrapped = rec.wrap(name, getattr(owners[0], attr), after)
        for owner in owners:
            rebind(owner, attr, wrapped)

    wrap_fn([data], "load_dataset", "data.load_dataset")
    agg_init = autodiff.NeighborAggregator.__init__
    rebind(autodiff.NeighborAggregator, "__init__",
           rec.wrap("autodiff.NeighborAggregator", agg_init))
    rebind(graph.Graph, "from_edges", classmethod(
        rec.wrap("graph.from_edges", graph.Graph.__dict__["from_edges"].__func__)))
    rebind(graph.Graph, "remove_edges",
           rec.wrap("graph.remove_edges", graph.Graph.remove_edges))
    wrap_fn([pipeline, verify], "fair_edge_remove",
            "graph.fair_edge_remove", rec._after_edit)
    wrap_fn([autodiff], "row_mean_neighbors", "autodiff.row_mean_neighbors")
    wrap_fn([autodiff], "grad", "autodiff.grad")
    wrap_fn([pipeline], "encode", "model.encode")
    wrap_fn([pipeline], "predict", "model.predict")
    for loss in ("pred_loss", "inv_loss", "suf_loss", "env_loss"):
        wrap_fn([pipeline], loss, f"losses.{loss}")
    wrap_fn([pipeline], "sc_loss", "losses.sc_loss", rec._after_sc)
    wrap_fn([pipeline], "select_counterfactuals", "losses.select_counterfactuals",
            rec._after_select)
    wrap_fn([pipeline], "sample_negative_edges", "losses.sample_negative_edges")
    wrap_fn([pipeline], "evaluate_predictions", "metrics.evaluate_predictions")
    wrap_fn([pipeline], "pretrain", "pipeline.pretrain", rec._phase_hwm("pretrain"))
    wrap_fn([pipeline], "run_phase1", "pipeline.run_phase1", rec._phase_hwm("edit"))
    wrap_fn([pipeline], "train_full", "pipeline.train_full", rec._phase_hwm("train"))
    wrap_fn([pipeline], "run_single", "pipeline.run_single")
    wrap_fn([pipeline], "run_experiment", "pipeline.run_experiment")
    for suite in ("identity_suite", "sign_suite", "budget_suite"):
        wrap_fn([verify], suite, f"verify.{suite}", rec._after_suite)
    wrap_fn([verify], "run_suites", "verify.run_suites")

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def span_totals(spans):
    """Per name: (calls, summed duration, summed self time). Self time is a
    span's duration minus the part of its interval that child spans cover."""
    children = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for sid, name, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + (end - start),
                        self_time + (end - start) - covered)
    return totals
