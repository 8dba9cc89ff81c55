"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 are deterministic property suites and run self-contained.
Criteria 8-12 reproduce desk-scale numbers on the German and NBA benchmark
graphs; those datasets are not redistributable with this repository, so the
tests load them from $FAIRGRAPH_DATA (or ./datasets/<name>/) in the
documented features.csv/edges.txt/meta.json layout and fail with a clear
message when the files are absent.
"""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fairgraph.data import load_dataset, resolve_dataset
from fairgraph.errors import DatasetError, InfeasibleError
from fairgraph.graph import edge_census, homophily_ratios, minimal_deletions
from fairgraph.losses import LossWeights, _tvmf, select_counterfactuals
from fairgraph.pipeline import TrainConfig, phase_one, run_experiment, run_single
from fairgraph.seeding import derive_seed
from fairgraph.verify import budget_suite, identity_suite, random_labeled_graph, \
    sign_suite
from oracles import grad_check, tvmf
from test_losses import exhaustive_counterfactuals, loss_builders


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:02d} PASS  {description}  [{elapsed:.1f}s]")


def load_benchmark(name):
    try:
        spec = resolve_dataset(name)
        return load_dataset(spec)
    except DatasetError as exc:
        root = os.environ.get("FAIRGRAPH_DATA", "datasets")
        pytest.fail(
            f"benchmark dataset {name!r} is not available: {exc}. Place "
            f"features.csv/edges.txt/meta.json under {root}/{name}/ or set "
            f"FAIRGRAPH_DATA (the files are not redistributable with this "
            f"repository).")


# ---------------------------------------------------------------------------
# 1-3: exact editing identities

def test_criterion_1_identity_suite():
    with criterion(1, "ratio-shift identities exact to 1e-12 on 500 graphs"):
        start = time.monotonic()
        report = identity_suite(n_graphs=500, seed=0)
        elapsed = time.monotonic() - start
        assert report.passed, report.counterexample
        assert report.max_residual <= 1e-12
        assert report.graphs_checked == 500
        assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_2_single_edge_signs():
    with criterion(2, "single-edge sign table exhaustive on 200 graphs"):
        start = time.monotonic()
        report = sign_suite(n_graphs=200, seed=0)
        elapsed = time.monotonic() - start
        assert report.passed, report.counterexample
        assert report.graphs_checked == 200
        assert elapsed < 10.0, f"sign suite took {elapsed:.2f}s"
        # Type III always improves both ratios when N_c > 0 and N_s < m:
        # the suite checks this per edge; make sure such cases occurred
        assert report.cases_checked > 200


def _exhaustive_min_deletions(g, labels, tau_c, tau_s):
    """Smallest k over ALL k-subsets of edges reaching both targets."""
    y = labels.class_label
    s = labels.sensitive
    yc = [int(y[u] == y[v]) for u, v in g.edges]
    ys = [int(s[u] == s[v]) for u, v in g.edges]
    n_c, n_s, m = sum(yc), sum(ys), g.m
    for k in range(m):
        for subset in itertools.combinations(range(m), k):
            hr_c = Fraction(n_c - sum(yc[i] for i in subset), m - k)
            hr_s = Fraction(n_s - sum(ys[i] for i in subset), m - k)
            if hr_c >= Fraction(tau_c) and hr_s <= Fraction(tau_s):
                return k
    return None


def test_criterion_3_budget_matches_exhaustive():
    with criterion(3, "minimal deletions equal exhaustive search on 100 instances"):
        start = time.monotonic()
        rng = np.random.default_rng(derive_seed(0, "acceptance:budget"))
        checked = 0
        while checked < 100:
            g, labels = random_labeled_graph(rng, max_n=8, max_m=12, min_m=2)
            census = edge_census(g, labels)
            if census.count_iii == 0 or census.n_c == 0 or census.n_s == 0:
                continue
            k_lim = min(census.count_iii, census.m - 1)
            best_c = Fraction(census.n_c, census.m - k_lim)
            best_s = Fraction(census.n_s - k_lim, census.m - k_lim)
            hr_c = Fraction(census.n_c, census.m)
            hr_s = Fraction(census.n_s, census.m)
            if best_c == hr_c or best_s == hr_s:
                continue
            tau_c = float((hr_c + best_c) / 2)
            tau_s = float((hr_s + best_s) / 2)
            try:
                k_star = minimal_deletions(census, tau_c, tau_s)
            except InfeasibleError:
                continue
            assert k_star == _exhaustive_min_deletions(g, labels, tau_c, tau_s)
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"budget comparison took {elapsed:.2f}s"
        # and the randomized threshold suite agrees end to end
        assert budget_suite(n_instances=100, seed=0).passed


# ---------------------------------------------------------------------------
# 4-6: losses

def test_criterion_4_gradient_suite():
    with criterion(4, "all five losses + composite pass grad_check at 5 seeds"):
        start = time.monotonic()
        for seed in range(5):
            params, build = loss_builders(seed)
            for which in ("pred", "inv", "suf", "sc", "env", "total"):
                arrays = params.arrays() if which in ("pred", "total") \
                    else params.arrays()[:4]
                err = grad_check(lambda: build(which), arrays, eps=1e-5,
                                 seed=seed)
                assert err < 1e-4, f"{which} at seed {seed}: {err}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.2f}s"


def test_criterion_5_tvmf_properties():
    with criterion(5, "t-vMF similarity bounded, monotone, cosine at kappa=0"):
        # the similarity sc_loss trains with, over a grid of cosines
        cos = np.linspace(-1.0, 1.0, 10_000)
        for kappa in (0.0, 0.1, 0.5, 1.0, 2.0, 8.0):
            phi, slope = _tvmf(cos, kappa)
            assert phi.min() >= -1.0 - 1e-12
            assert phi.max() <= 1.0 + 1e-12
            assert np.all(np.diff(phi) > 0.0)
            # the slope the contrast's gradient uses is dphi/dcos
            assert np.allclose(slope[1:-1], np.gradient(phi, cos)[1:-1], rtol=1e-5)
        assert np.max(np.abs(_tvmf(cos, 0.0)[0] - cos)) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(6)
            assert abs(tvmf(x, x, kappa=rng.uniform(0, 5)) - 1.0) <= 1e-12


def test_criterion_6_counterfactual_selection_exact():
    with criterion(6, "counterfactual selection equals exhaustive K-NN scan"):
        rng = np.random.default_rng(derive_seed(0, "acceptance:cf"))
        for n, k in ((10, 1), (30, 3), (50, 5), (50, 10)):
            h = rng.standard_normal((n, 6))
            pseudo = rng.integers(0, 2, n)
            sens = rng.integers(0, 2, n)
            cf = select_counterfactuals(h, pseudo, sens, k)
            e_ids, c_ids = exhaustive_counterfactuals(h, pseudo, sens, k)
            for i in range(n):
                assert cf.e_ids[i].tolist() == e_ids[i]
                assert cf.c_ids[i].tolist() == c_ids[i]


# ---------------------------------------------------------------------------
# 7: mode reduction

def test_criterion_7_caf_reduction_bit_identical():
    with criterion(7, "HSCCAF with omega=eta=0 and no edit == CAF bit-for-bit"):
        from fairgraph.data import SynthConfig, synth_generate

        g, table = synth_generate(SynthConfig(
            n=150, target_hr_c=0.55, target_hr_s=0.85, mean_degree=8,
            class_signal=1.5, sensitive_signal=0.8, seed=6))
        base = TrainConfig(
            weights=LossWeights(alpha=0.5, beta=1.0, gamma=0.5, omega=0.0,
                                eta=0.0, k=3, k_prime=3),
            lr=0.05, T_pre=30, T_train=20, seeds=(0,))
        a = run_single(g, table, replace(base, mode="HSCCAF-GE"), seed=9)
        b = run_single(g, table, replace(base, mode="CAF"), seed=9)
        assert [e.loss for e in a.epochs] == [e.loss for e in b.epochs]
        assert a.test_report.to_dict() == b.test_report.to_dict()


# ---------------------------------------------------------------------------
# 8-12: desk-scale benchmark reproduction

GERMAN_WEIGHTS = LossWeights(alpha=10, beta=1, gamma=1, omega=0.3, eta=0.09,
                             k=5, k_prime=5, kappa=1.0)
NBA_WEIGHTS = LossWeights(alpha=0.9, beta=1, gamma=1, omega=0.09, eta=0.8,
                          k=5, k_prime=5, kappa=1.0)


def five_split_config(weights, mode="HSCCAF"):
    # lr fixed at 0.01; the adaptive-moment option is used because the
    # reported tolerances come from runs in that ecosystem, and the flag is
    # recorded in every emitted report
    seeds = tuple(derive_seed(0, f"run:{i}") for i in range(5))
    return TrainConfig(weights=weights, lr=0.01, T_pre=100, T_train=100,
                       refresh_period=5, seeds=seeds, mode=mode,
                       optimizer="adam")


def test_criterion_8_german_original_homophily():
    with criterion(8, "German original homophily hr_s=0.80, hr_c=0.59 (+-0.005)"):
        graph, table = load_benchmark("german")
        assert graph.n == 1000
        hr_c, hr_s = homophily_ratios(graph, table.labels)
        assert abs(hr_s - 0.80) <= 0.005, f"hr_s={hr_s:.4f}"
        assert abs(hr_c - 0.59) <= 0.005, f"hr_c={hr_c:.4f}"


def test_criterion_9_german_edited_homophily():
    with criterion(9, "German edited homophily in [0.71,0.77]/[0.60,0.65], <60s"):
        graph, table = load_benchmark("german")
        start = time.monotonic()
        cfg = five_split_config(GERMAN_WEIGHTS)
        report = phase_one(graph, table, cfg, cfg.seeds[0]).edit_report
        elapsed = time.monotonic() - start
        assert 0.71 <= report.hr_s_after <= 0.77, report.hr_s_after
        assert 0.60 <= report.hr_c_after <= 0.65, report.hr_c_after
        assert elapsed < 60.0, f"pretrain+edit took {elapsed:.1f}s"


def test_criterion_10_german_end_to_end():
    with criterion(10, "German 5-split HSCCAF: BACC>=57, dSP<=5.5, dEO<=5.5, <10min"):
        graph, table = load_benchmark("german")
        start = time.monotonic()
        _, agg = run_experiment(graph, table, five_split_config(GERMAN_WEIGHTS))
        elapsed = time.monotonic() - start
        assert agg["bacc"]["mean"] >= 57.0, agg["bacc"]
        assert agg["delta_sp"]["mean"] <= 5.5, agg["delta_sp"]
        assert agg["delta_eo"]["mean"] <= 5.5, agg["delta_eo"]
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_criterion_11_nba_end_to_end():
    with criterion(11, "NBA 5-split HSCCAF: BACC>=64, dSP<=10, <10min"):
        graph, table = load_benchmark("nba")
        start = time.monotonic()
        _, agg = run_experiment(graph, table, five_split_config(NBA_WEIGHTS))
        elapsed = time.monotonic() - start
        assert agg["bacc"]["mean"] >= 64.0, agg["bacc"]
        assert agg["delta_sp"]["mean"] <= 10.0, agg["delta_sp"]
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_criterion_12_editing_ablation_direction():
    with criterion(12, "German: editing lowers mean dSP+dEO vs no editing"):
        graph, table = load_benchmark("german")
        _, with_edit = run_experiment(graph, table,
                                      five_split_config(GERMAN_WEIGHTS))
        _, without = run_experiment(graph, table,
                                    five_split_config(GERMAN_WEIGHTS,
                                                      mode="HSCCAF-GE"))
        gap_with = with_edit["delta_sp"]["mean"] + with_edit["delta_eo"]["mean"]
        gap_without = without["delta_sp"]["mean"] + without["delta_eo"]["mean"]
        assert gap_with < gap_without, (gap_with, gap_without)
