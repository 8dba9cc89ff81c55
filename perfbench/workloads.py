"""The four benchmark workloads: how each one's inputs are made from a seed,
which public fairgraph call it times, and the checks on that call's output.

Training inputs start from `synth_generate` and are then made harder: class
labels are flipped at a rate that depends on the sensitive group, and a
share of the nodes is hidden as unlabeled. The program only ever sees the
noisy labels; the noise ceiling is the balanced accuracy that the true
labels themselves score against the noisy ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from fairgraph import pipeline, verify
from fairgraph.data import NodeTable, SynthConfig, synth_generate
from fairgraph.graph import UNKNOWN, NodeLabels, predict_ratio_shift
from fairgraph.losses import LossWeights
from fairgraph.metrics import balanced_accuracy

# criterion-10 weights for German and criterion-11 weights for NBA, as the
# acceptance tests use them
GERMAN_WEIGHTS = LossWeights(alpha=10, beta=1, gamma=1, omega=0.3, eta=0.09,
                             k=5, k_prime=5, kappa=1.0)
NBA_WEIGHTS = LossWeights(alpha=0.9, beta=1, gamma=1, omega=0.09, eta=0.8,
                          k=5, k_prime=5, kappa=1.0)

FLIP_RATE = (0.10, 0.30)   # label flip probability for sensitive group 0, 1
HIDDEN_SHARE = 0.20        # share of nodes whose (noisy) label is hidden
CLASS_SIGNAL = 0.8
IDENTITY_TOL = 1e-12
VERIFY_GRAPHS = 1000       # graphs per suite in one verify call


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict = field(default_factory=dict)
    cfg: pipeline.TrainConfig | None = None
    n_seeds: int = 1                      # >1 means run_experiment

    @property
    def trains(self):
        return self.cfg is not None

    @property
    def root_span(self):
        """Trace name of the workload's public call."""
        if not self.trains:
            return "verify.run_suites"
        return "pipeline.run_experiment" if self.n_seeds > 1 else "pipeline.run_single"

    def epochs_per_call(self):
        return self.n_seeds * (self.cfg.T_pre + self.cfg.T_train)


def _train_cfg(weights, mode, epochs):
    return pipeline.TrainConfig(weights=weights, lr=0.01, T_pre=epochs,
                                T_train=epochs, refresh_period=5, mode=mode,
                                optimizer="adam")


WORKLOADS = {
    "german": Workload(
        name="german",
        synth=dict(n=1000, target_hr_c=0.59, target_hr_s=0.80,
                   mean_degree=44.0, feature_dim=27),
        cfg=_train_cfg(GERMAN_WEIGHTS, "HSCCAF", 5)),
    "sparse-2k": Workload(
        name="sparse-2k",
        synth=dict(n=2000, target_hr_c=0.59, target_hr_s=0.80,
                   mean_degree=10.0, feature_dim=16),
        cfg=_train_cfg(GERMAN_WEIGHTS, "HSCCAF", 5)),
    "nba-caf": Workload(
        name="nba-caf",
        synth=dict(n=403, target_hr_c=0.70, target_hr_s=0.73,
                   mean_degree=52.7, feature_dim=39),
        cfg=_train_cfg(NBA_WEIGHTS, "CAF", 5), n_seeds=4),
    "verify": Workload(name="verify"),
}


def make_inputs(wl: Workload, seed):
    """(graph, table, noise_ceiling_bacc) for a training workload; the same
    seed always gives the same inputs."""
    graph, clean = synth_generate(SynthConfig(
        class_signal=CLASS_SIGNAL, seed=seed, **wl.synth))
    rng = np.random.default_rng([seed, 1])
    y_true = clean.labels.class_label
    s = clean.labels.sensitive
    flip = rng.random(len(y_true)) < np.where(s == 0, *FLIP_RATE)
    y = np.where(flip, 1 - y_true, y_true)
    # an exact hidden count keeps the split sizes, and with them the n_l x n_l
    # contrast matrices, the same for every seed
    labeled = np.ones(len(y), dtype=bool)
    labeled[rng.permutation(len(y))[:round(HIDDEN_SHARE * len(y))]] = False
    y = np.where(labeled, y, UNKNOWN)
    table = NodeTable(features=clean.features,
                      labels=NodeLabels.create(sensitive=s, class_label=y),
                      feature_names=clean.feature_names)
    ceiling = balanced_accuracy(y_true[labeled], y[labeled])
    return graph, table, ceiling


def run_call(wl: Workload, graph, table, seed):
    """The workload's single public call."""
    if not wl.trains:
        return verify.run_suites(n_graphs=VERIFY_GRAPHS, seed=seed)
    if wl.n_seeds > 1:
        cfg = replace(wl.cfg, seeds=tuple(seed + i for i in range(wl.n_seeds)))
        return pipeline.run_experiment(graph, table, cfg)
    return pipeline.run_single(graph, table, wl.cfg, seed)


def run_results(wl: Workload, out):
    """The RunResults inside a call's output (empty for verify)."""
    if not wl.trains:
        return []
    return out[0] if wl.n_seeds > 1 else [out]


def check_output(wl: Workload, out):
    """Problems found in one call's output, as a list of strings."""
    if not wl.trains:
        passed, reports = out
        return [] if passed else [f"verify suite {r.name} failed: {r.counterexample}"
                                  for r in reports if not r.passed]
    problems = []
    for r in run_results(wl, out):
        tag = f"seed {r.seed}"
        bad = [e.epoch for e in r.epochs
               if not math.isfinite(e.loss)
               or any(v is not None and not math.isfinite(v) for v in e.parts.values())]
        if bad:
            problems.append(f"{tag}: non-finite loss at epochs {bad[:5]}")
        rep = r.edit_report
        if not pipeline.MODE_FLAGS[wl.cfg.mode]["edit"]:
            if not rep.skipped or rep.removed_edges:
                problems.append(f"{tag}: mode {wl.cfg.mode} edited the graph")
            continue
        before, after = rep.census_before, rep.census_after
        d_c, d_s = predict_ratio_shift(before, before.count_iii)
        err = max(abs((rep.hr_c_after - rep.hr_c_before) - d_c),
                  abs((rep.hr_s_after - rep.hr_s_before) - d_s))
        if err > IDENTITY_TOL:
            problems.append(f"{tag}: edit hr shift off the closed form by {err:.3g}")
        if after.count_iii != 0:
            problems.append(f"{tag}: {after.count_iii} Type III edges left after the edit")
        if len(rep.removed_edges) != before.count_iii:
            problems.append(f"{tag}: removed {len(rep.removed_edges)} edges, "
                            f"census had {before.count_iii} Type III")
    return problems


def fingerprint(wl: Workload, out):
    """What two calls with the same seed must reproduce bit for bit."""
    if not wl.trains:
        passed, reports = out
        return [r.to_dict() for r in reports]
    return [(r.test_report.to_dict(), r.edit_report.removed_edges,
             [e.loss for e in r.epochs], r.best_epoch)
            for r in run_results(wl, out)]


def quality(wl: Workload, out):
    """Test BACC, AUC, dSP and dEO in percent, averaged over the call's runs."""
    results = run_results(wl, out)
    if not results:
        return {}
    return {name: float(np.mean([getattr(r.test_report, attr) for r in results]))
            for name, attr in (("test_bacc", "bacc"), ("test_auc", "auc"),
                               ("test_dsp", "delta_sp"), ("test_deo", "delta_eo"))}
