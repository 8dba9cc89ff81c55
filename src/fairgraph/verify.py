"""Randomized verification suites for the edge-editing identities.

Three suites, each driven by seeded random graphs:
  * identity: recomputed (hr_c, hr_s) shifts after deleting random Type III
    subsets (and after full fair_edge_remove) must match the closed forms to
    the absolute tolerance IDENTITY_TOL;
  * signs: exhaustive single-edge deletions must reproduce the per-type sign
    table, and only Type III may raise hr_c while lowering hr_s;
  * budget: minimal_deletions must agree exactly with exhaustive search over
    all feasible deletion budgets on small graphs.

Each suite returns a SuiteReport; `run_suites` aggregates them and the CLI
serializes the first counterexample when one exists.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import (
    EdgeCensus,
    EdgeType,
    Graph,
    NodeLabels,
    decode_pairs,
    edge_census,
    edge_types,
    fair_edge_remove,
    homophily_ratios,
    minimal_deletions,
    predict_ratio_shift,
    single_edge_effect,
)
from .errors import ConfigError, InfeasibleError
from .seeding import derive_seed

# the largest absolute gap between an observed ratio shift and its closed
# form that the identity suite accepts
IDENTITY_TOL = 1e-12


def random_labeled_graph(rng, max_n=30, max_m=None, min_m=1):
    """Random simple graph with random binary labels on every node."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        possible = n * (n - 1) // 2
        cap = possible if max_m is None else min(possible, max_m)
        if cap < min_m:
            continue
        m = int(rng.integers(min_m, cap + 1))
        idx = rng.choice(possible, size=m, replace=False)
        g = Graph.from_edges(n, decode_pairs(n, np.sort(idx)))
        labels = NodeLabels.create(
            sensitive=rng.integers(0, 2, size=n),
            class_label=rng.integers(0, 2, size=n))
        return g, labels


@dataclass
class SuiteReport:
    name: str
    graphs_checked: int = 0
    cases_checked: int = 0
    max_residual: float = 0.0
    counterexample: dict | None = None

    @property
    def passed(self):
        return self.counterexample is None

    def to_dict(self):
        return {"name": self.name, "graphs_checked": self.graphs_checked,
                "cases_checked": self.cases_checked,
                "max_residual": self.max_residual,
                "passed": self.passed, "counterexample": self.counterexample}


def _graph_payload(g, labels):
    return {"n": g.n, "edges": g.edge_array.tolist(),
            "class_label": labels.class_label.tolist(),
            "sensitive": labels.sensitive.tolist()}


def identity_suite(n_graphs=500, seed=0):
    """Observed vs closed-form ratio shifts for random Type III subsets."""
    rng = np.random.default_rng(derive_seed(seed, "verify:identity"))
    report = SuiteReport(name="identity")
    for _ in range(n_graphs):
        g, labels = random_labeled_graph(rng, max_n=30)
        types = edge_types(g, labels)
        census = EdgeCensus.from_types(types)
        hr_c, hr_s = census.hr_c, census.hr_s
        report.graphs_checked += 1

        type_iii = g.edge_array[types == EdgeType.III]
        k_max = len(type_iii)
        if k_max == g.m:
            k_max -= 1  # keep at least one edge so ratios stay defined
        k = int(rng.integers(0, k_max + 1)) if k_max > 0 else 0
        subset = type_iii[rng.choice(len(type_iii), size=k, replace=False)] \
            if k else type_iii[:0]
        edited = g.remove_edges(subset)
        hr_c2, hr_s2 = homophily_ratios(edited, labels)
        pred_dc, pred_ds = predict_ratio_shift(census, k)
        res = max(abs((hr_c2 - hr_c) - pred_dc), abs((hr_s2 - hr_s) - pred_ds))
        report.max_residual = max(report.max_residual, res)
        report.cases_checked += 1
        if res > IDENTITY_TOL:
            report.counterexample = {"kind": "subset-shift", "k": k,
                                     "residual": res, **_graph_payload(g, labels)}
            return report

        # full removal must leave zero Type III edges and match the identity
        if census.count_iii < g.m and census.count_iii > 0:
            edited_full, _ = fair_edge_remove(g, labels)
            census_after = edge_census(edited_full, labels)
            if census_after.count_iii != 0:
                report.counterexample = {"kind": "type-iii-left-behind",
                                         "left": census_after.count_iii,
                                         **_graph_payload(g, labels)}
                return report
            k_full = g.m - edited_full.m
            hr_c3, hr_s3 = census_after.hr_c, census_after.hr_s
            pred_dc, pred_ds = predict_ratio_shift(census, census.count_iii)
            res = max(abs((hr_c3 - hr_c) - pred_dc), abs((hr_s3 - hr_s) - pred_ds))
            report.max_residual = max(report.max_residual, res)
            report.cases_checked += 1
            if res > IDENTITY_TOL or k_full != census.count_iii:
                report.counterexample = {"kind": "full-removal-shift",
                                         "removed": k_full,
                                         "expected_removed": census.count_iii,
                                         "residual": res,
                                         **_graph_payload(g, labels)}
                return report
    return report


def sign_suite(n_graphs=200, seed=0):
    """Exhaustive single-edge deletions vs the per-type sign table."""
    rng = np.random.default_rng(derive_seed(seed, "verify:signs"))
    report = SuiteReport(name="signs")
    for _ in range(n_graphs):
        g, labels = random_labeled_graph(rng, max_n=10, max_m=16, min_m=2)
        types = edge_types(g, labels)
        census = EdgeCensus.from_types(types)
        hr_c, hr_s = census.hr_c, census.hr_s
        report.graphs_checked += 1
        for i, (e, t) in enumerate(zip(g.edge_array.tolist(),
                                       map(EdgeType, types.tolist()))):
            edited = Graph(n=g.n, edge_array=np.delete(g.edge_array, i, axis=0))
            hr_c2, hr_s2 = homophily_ratios(edited, labels)
            dc, ds = hr_c2 - hr_c, hr_s2 - hr_s
            want_dc, want_ds = single_edge_effect(census, t)
            got_dc = (dc > 1e-15) - (dc < -1e-15)
            got_ds = (ds > 1e-15) - (ds < -1e-15)
            report.cases_checked += 1
            if (got_dc, got_ds) != (want_dc, want_ds):
                report.counterexample = {"kind": "sign-table", "edge": e,
                                         "type": t.name,
                                         "predicted": [want_dc, want_ds],
                                         "observed": [got_dc, got_ds],
                                         **_graph_payload(g, labels)}
                return report
            if t is not EdgeType.III and dc > 1e-15 and ds < -1e-15:
                report.counterexample = {"kind": "non-iii-improvement",
                                         "edge": e, "type": t.name,
                                         **_graph_payload(g, labels)}
                return report
            if t is EdgeType.III and census.n_c > 0 and census.n_s < census.m \
                    and not (dc > 1e-15 and ds < -1e-15):
                report.counterexample = {"kind": "iii-not-improving",
                                         "edge": e,
                                         **_graph_payload(g, labels)}
                return report
    return report


def budget_suite(n_instances=100, seed=0):
    """minimal_deletions vs brute-force minimal feasible budget."""
    rng = np.random.default_rng(derive_seed(seed, "verify:budget"))
    report = SuiteReport(name="budget")
    while report.cases_checked < n_instances:
        g, labels = random_labeled_graph(rng, max_n=8, max_m=12, min_m=2)
        census = edge_census(g, labels)
        m, n_c, n_s, miii = census.m, census.n_c, census.n_s, census.count_iii
        if miii == 0 or n_c == 0 or n_s == 0:
            continue
        # brute force: smallest k in 0..min(miii, m-1) meeting both thresholds
        k_limit = min(miii, m - 1)
        reachable_c = [Fraction(n_c, m - k) for k in range(k_limit + 1)]
        reachable_s = [Fraction(n_s - k, m - k) for k in range(k_limit + 1)]
        if reachable_c[-1] == reachable_c[0] or reachable_s[-1] == reachable_s[0]:
            continue
        # pick targets strictly between the k=0 ratios and the best reachable
        tau_c = float((reachable_c[0] + reachable_c[-1]) / 2)
        tau_s = float((reachable_s[0] + reachable_s[-1]) / 2)
        brute = next((k for k in range(k_limit + 1)
                      if reachable_c[k] >= Fraction(tau_c)
                      and reachable_s[k] <= Fraction(tau_s)), None)
        report.graphs_checked += 1
        try:
            got = minimal_deletions(census, tau_c, tau_s)
        except InfeasibleError:
            got = None
        report.cases_checked += 1
        if got != brute:
            report.counterexample = {"kind": "budget", "tau_c": tau_c,
                                     "tau_s": tau_s, "expected": brute,
                                     "got": got, **_graph_payload(g, labels)}
            return report
    return report


def run_suites(n_graphs=100, seed=0):
    """Run all three suites on n_graphs >= 1 graphs each; returns (passed,
    [SuiteReport]). Fewer graphs are a ConfigError, since no such run checks
    anything."""
    if isinstance(n_graphs, bool) or not isinstance(n_graphs, numbers.Integral) \
            or n_graphs < 1:
        raise ConfigError(f"the suites need at least one graph, got {n_graphs!r}")
    reports = [
        identity_suite(n_graphs=n_graphs, seed=seed),
        sign_suite(n_graphs=n_graphs, seed=seed),
        budget_suite(n_instances=n_graphs, seed=seed),
    ]
    return all(r.passed for r in reports), reports
