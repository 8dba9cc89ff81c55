"""Three-phase training: pre-train the encoder/predictor on the prediction
loss, edit the graph with the resulting pseudo-labels, then train the full
objective on the edited graph with periodic pseudo-label and counterfactual
refreshes. Pre-training and phase 2 run on one optimisation loop,
`_descend`. Also the split protocol, epoch selection, and grid search.

Everything is deterministic given (config, data, seed): per-component seeds
are derived from the run seed by labeled hashing.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import logging
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import __version__
from .autodiff import NeighborAggregator
from .data import NodeTable
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateEditError,
    DivergenceError,
    UndefinedMetricError,
    UndefinedRatioError,
)
from .graph import EditReport, Graph, NodeLabels, edge_census, fair_edge_remove
from .losses import (
    TERMS,
    LossWeights,
    _whole_number,
    active_terms,
    inv_loss,
    pred_loss,
    sample_negative_edges,
    sc_loss,
    select_counterfactuals,
    structure_pairs,
    suf_loss,
    env_loss,
    total_loss,
)
from .metrics import SUMMARY_METRICS, MetricsReport, evaluate_predictions, hard_labels
from .model import Params, encode, feature_stats, init_params, input_layer, predict
from .seeding import derive_seed

log = logging.getLogger(__name__)

EPOCH_CAP = 100

# Adam's moment decays and denominator guard, at their published defaults
# (Kingma and Ba, ICLR 2015); every phase steps with Adam at cfg.lr
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# which additions each mode enables on top of the base objective: the
# Type III edit, and the supervised contrastive plus environmental terms
MODE_FLAGS = {
    "HSCCAF": {"edit": True, "contrast": True},
    "CAF": {"edit": False, "contrast": False},
    "CAF+GE": {"edit": True, "contrast": False},
    "HSCCAF-GE": {"edit": False, "contrast": True},
}
MODES = tuple(MODE_FLAGS)


@dataclass(frozen=True)
class TrainConfig:
    weights: LossWeights = LossWeights()
    lr: float = 0.01
    T_pre: int = 100
    T_train: int = 100
    refresh_period: int = 5
    seeds: tuple = (0,)
    splits: tuple = (0.5, 0.25, 0.25)
    mode: str = "HSCCAF"
    optimizer: str = "adam"
    hidden: int = 16
    d_c: int = 16

    def __post_init__(self):
        """Every malformed value is a ConfigError; counts become ints."""
        if isinstance(self.lr, bool) or not (isinstance(self.lr, numbers.Real)
                                             and 0 < self.lr < math.inf):
            raise ConfigError(f"lr must be a positive number, got {self.lr!r}")
        for name, high in (("T_pre", EPOCH_CAP), ("T_train", EPOCH_CAP),
                           ("refresh_period", math.inf), ("hidden", math.inf),
                           ("d_c", math.inf)):
            value = _whole_number(name, getattr(self, name))
            if not 1 <= value <= high:
                raise ConfigError(f"{name} must be in 1..{high}, got {value}")
            object.__setattr__(self, name, value)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer != "adam":
            raise ConfigError(f"optimizer must be 'adam', got {self.optimizer!r}")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ConfigError(f"seeds must be a nonempty list, got {self.seeds!r}")
        object.__setattr__(self, "seeds",
                           tuple(_whole_number("seeds", s) for s in self.seeds))
        splits = self.splits
        if not isinstance(splits, (list, tuple)) or len(splits) != 3 \
                or not all(isinstance(f, numbers.Real) and f > 0 for f in splits) \
                or abs(sum(splits) - 1.0) > 1e-9:
            raise ConfigError("splits must be three positive fractions summing to 1")
        object.__setattr__(self, "splits", tuple(float(f) for f in splits))

    def to_dict(self):
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "weights": self.weights.to_dict(), "seeds": list(self.seeds),
                "splits": list(self.splits)}

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a mapping, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(doc)
        if "weights" in kwargs:
            kwargs["weights"] = LossWeights.from_dict(kwargs["weights"])
        return cls(**kwargs)

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def to_dict(self):
        return {f.name: np.where(getattr(self, f.name))[0].tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc, n):
        masks = {}
        for key in (f.name for f in fields(cls)):
            for i in doc[key]:
                if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                    raise ValueError(f"{key} ids must be whole numbers, got {i!r}")
                if not 0 <= i < n:
                    raise ValueError(f"{key} ids outside 0..{n - 1}")
            m = np.zeros(n, dtype=bool)
            m[np.asarray(doc[key], dtype=np.int64)] = True
            masks[key] = m
        return cls(**masks)


def split_dataset(n, labeled_ids, fractions, seed) -> Splits:
    """Shuffle the labeled ids and cut train/val/test masks; unlabeled nodes
    stay outside every mask but remain in the graph."""
    labeled_ids = np.asarray(labeled_ids, dtype=np.int64)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = labeled_ids[rng.permutation(len(labeled_ids))]
    n_train = int(round(fractions[0] * len(order)))
    n_val = int(round(fractions[1] * len(order)))
    groups = (order[:n_train], order[n_train:n_train + n_val],
              order[n_train + n_val:])
    if any(len(g) == 0 for g in groups):
        raise ConfigError("a split came out empty; adjust fractions or labels")
    masks = []
    for g in groups:
        m = np.zeros(n, dtype=bool)
        m[g] = True
        masks.append(m)
    return Splits(*masks)


# ---------------------------------------------------------------------------
# phases

def _descend(agg: NeighborAggregator, x, params: Params, cfg: TrainConfig, epochs,
             phase, objective):
    """The optimisation loop of every phase: `epochs` Adam steps at cfg.lr
    on the weighted objective, updating `params` in place. The moments
    start at zero in each call, so each phase starts a fresh Adam.

    What the phase does not change is built before the loop: layer one's
    input from the raw features x over the graph of `agg`, as the feature
    statistics stay fixed through a phase, so each `encode` starts at
    layer one's product.

    objective(epoch, latent, probs) returns the epoch's `total_loss`
    parts from the forward pass of the current parameters. A non-finite
    weighted loss raises DivergenceError with the epoch and `phase`. Each
    step yields (epoch, loss, parts, probs), probs from the forward pass of
    the stepped parameters; that pass also feeds the next epoch's
    objective, so each parameter state is encoded once.
    """
    z1 = input_layer(params, agg, x)
    arrays = params.arrays()
    m = [np.zeros_like(p) for p in arrays]
    v = [np.zeros_like(p) for p in arrays]
    latent = encode(params, agg, z1)
    probs = predict(params, latent.c)
    for epoch in range(1, epochs + 1):
        parts = objective(epoch, latent, probs)
        loss, g_h, g_logit = total_loss(parts, cfg.weights, params.w)
        if not np.isfinite(loss):
            raise DivergenceError(f"{phase} loss became non-finite at epoch {epoch}",
                                  epoch=epoch, phase=phase)
        for i, (p, g) in enumerate(zip(arrays, ad.grad(params, latent, g_h, g_logit))):
            m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
            v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = m[i] / (1 - ADAM_BETA1 ** epoch)
            v_hat = v[i] / (1 - ADAM_BETA2 ** epoch)
            p -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        latent = encode(params, agg, z1)
        probs = predict(params, latent.c)
        yield epoch, float(loss), parts, probs


@dataclass
class PretrainResult:
    params: Params
    pseudo_labels: np.ndarray
    losses: list


def pretrain(agg: NeighborAggregator, x, labels: NodeLabels, train_mask,
             cfg: TrainConfig, seed) -> PretrainResult:
    """Minimize the prediction loss alone on the raw features x over the
    graph of the aggregator `agg`, then read
    pseudo-labels off the trained predictor: the training view of `labels`
    completed by the predictions, so ground truth only on `train_mask`. The
    encoder standardizes x with its training rows' statistics."""
    if not np.asarray(train_mask, dtype=bool).any():
        raise UndefinedMetricError("pre-training needs a nonempty training mask")
    params = init_params(x.shape[1], cfg.hidden, cfg.d_c, derive_seed(seed, "init"))
    params.feature_mean, params.feature_std = feature_stats(x, train_mask)
    y = labels.class_label
    losses = []
    for _, loss, _, probs in _descend(
            agg, x, params, cfg, cfg.T_pre, "pretrain",
            lambda epoch, latent, probs: {"pred": pred_loss(probs, y, train_mask)}):
        losses.append(loss)
    pseudo = labels.training_view(train_mask).with_pseudo(hard_labels(probs)).class_label
    return PretrainResult(params=params, pseudo_labels=pseudo, losses=losses)


def run_phase1(graph: Graph, labels: NodeLabels, mode):
    """Phase 1 on a complete labelling: (the graph phase 2 trains on, its
    EditReport). Editing modes remove every Type III edge; the others keep
    the graph, `skipped`. An edit that would remove every edge is not
    applied, as an edgeless graph would leave the neighbour means all zero:
    the report is `degenerate`. An edgeless graph raises UndefinedRatioError
    in every mode."""
    edit = MODE_FLAGS[mode]["edit"]
    if edit:
        try:
            return fair_edge_remove(graph, labels)
        except DegenerateEditError:
            log.warning("editing would remove every edge; training on the "
                        "unedited graph")
    elif graph.m == 0:
        raise UndefinedRatioError("homophily ratios are undefined on an empty edge set")
    census = edge_census(graph, labels)
    return graph, EditReport(removed_edges=(), census_before=census,
                             census_after=census, skipped=not edit, degenerate=edit)


@dataclass(frozen=True)
class PhaseOne:
    """What phase 2 starts from: the split, pre-training's result, and the
    graph phase 2 trains on with its EditReport and its NeighborAggregator.
    Grid cells of a seed share one PhaseOne on several threads, so it holds
    nothing that a run writes."""
    splits: Splits
    pre: PretrainResult
    graph: Graph
    edit_report: EditReport
    agg: NeighborAggregator


def phase_one(graph: Graph, table: NodeTable, cfg: TrainConfig, seed) -> PhaseOne:
    """Phase 1 of a run: split the labelled nodes, pre-train on the training
    split, and make the mode's edit under pre-training's pseudo-labels. Only
    the training split's ground truth enters; the val/test labels reach only
    phase 2's reports. No loss weight is read, so every grid cell of a seed
    shares one result. One aggregator is built per graph: phase 2 reuses
    pre-training's when the edit keeps the graph."""
    labeled_ids = np.where(table.labels.labeled_mask())[0]
    splits = split_dataset(table.n, labeled_ids, cfg.splits, derive_seed(seed, "split"))
    agg = NeighborAggregator(graph)
    pre = pretrain(agg, table.features, table.labels, splits.train, cfg, seed)
    edited, edit_report = run_phase1(
        graph, replace(table.labels, class_label=pre.pseudo_labels), cfg.mode)
    if edited is not graph:
        agg = NeighborAggregator(edited)
    return PhaseOne(splits=splits, pre=pre, graph=edited, edit_report=edit_report,
                    agg=agg)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    parts: dict
    val_score: float | None

    def to_dict(self):
        return asdict(self)


@dataclass
class RunResult:
    cfg: TrainConfig
    seed: int
    epochs: list
    best_epoch: int
    val_report: MetricsReport
    test_report: MetricsReport
    edit_report: EditReport
    params: Params
    splits: Splits

    def to_dict(self):
        return {
            "library_version": __version__,
            "mode": self.cfg.mode,
            "seed": self.seed,
            "config_hash": self.cfg.config_hash(),
            "optimizer": self.cfg.optimizer,
            "best_epoch": self.best_epoch,
            "val": self.val_report.to_dict(),
            "test": self.test_report.to_dict(),
            "edit": self.edit_report.to_dict(),
            "epochs": [e.to_dict() for e in self.epochs],
            "splits": self.splits.to_dict(),
        }


def train_full(start: PhaseOne, x, labels: NodeLabels, cfg: TrainConfig,
               seed) -> RunResult:
    """Phase 2: full objective on phase 1's graph, from the raw features x,
    starting from a copy of the pre-trained parameters, so one `start`
    feeds any number of runs.

    Training reads ground truth on splits.train only: it is the label set of
    the prediction loss and of the contrast. With the invariance term on,
    pseudo-labels (that truth, predictions elsewhere) and counterfactuals
    refresh at epoch 1 and every refresh_period epochs, from the forward
    pass that epoch's loss uses; the edit itself stays frozen. The best
    epoch maximizes the validation selection score, earliest on ties; epochs
    with undefined validation metrics are disqualified. The test report
    reads the best epoch's forward pass, and the result's params hold that
    epoch's values.
    """
    graph, splits = start.graph, start.splits
    params = copy.deepcopy(start.pre.params)
    w = cfg.weights
    active = active_terms(w, MODE_FLAGS[cfg.mode]["contrast"])

    y = labels.class_label
    sens = labels.sensitive
    seen = labels.training_view(splits.train)

    # the structure loss's pairs are fixed for the phase; their operator
    # takes each epoch's weights, so it belongs to this run, not to `start`
    if "suf" in active:
        try:
            neg_edges = sample_negative_edges(graph, graph.m,
                                              derive_seed(seed, "negative-edges"))
        except CapacityError as exc:
            raise CapacityError(
                f"{exc}; both counts are of the graph after the phase-1 edit, which "
                f"kept {graph.m} of the dataset's {start.edit_report.census_before.m} edges"
            ) from exc
        suf_pairs = structure_pairs(graph.n, graph.edge_array, neg_edges)

    cf = None
    # each term's loss on a forward pass, looked up as a module name per call
    compute = {
        "pred": lambda latent, probs: pred_loss(probs, y, splits.train),
        "inv": lambda latent, probs: inv_loss(latent.c, latent.e, cf, w.gamma),
        "suf": lambda latent, probs: suf_loss(latent.h, *suf_pairs),
        "sc": lambda latent, probs: sc_loss(latent.c, y, splits.train, w.kappa),
        "env": lambda latent, probs: env_loss(latent.e, sens, w.k_prime),
    }

    def objective(epoch, latent, probs):
        nonlocal cf
        if "inv" in active and (epoch == 1 or epoch % cfg.refresh_period == 0):
            pseudo = seen.with_pseudo(hard_labels(probs)).class_label
            cf = select_counterfactuals(latent.h, pseudo, sens, w.k)
        return {name: compute[name](latent, probs) for name in active}

    arrays = params.arrays()
    records = []
    best = None  # (score, epoch, param values, val_report, probs)
    undefined = None  # why the last disqualified epoch's metrics were undefined
    for epoch, loss, parts, probs in _descend(start.agg, x, params, cfg, cfg.T_train,
                                              "train", objective):
        try:
            val_report = evaluate_predictions(probs, y, sens, mask=splits.val)
            val_score = val_report.score
        except UndefinedMetricError as exc:
            val_report, val_score, undefined = None, None, exc
        records.append(EpochRecord(epoch=epoch, loss=loss, val_score=val_score, parts={
            t.name: float(parts[t.name][0]) if t.name in parts else None for t in TERMS}))
        if val_score is not None and (best is None or val_score > best[0]):
            best = (val_score, epoch, [p.copy() for p in arrays], val_report, probs)

    if best is None:
        raise UndefinedMetricError(
            f"no epoch produced defined validation metrics: {undefined}")

    for p, v in zip(arrays, best[2]):
        p[...] = v
    test_report = evaluate_predictions(best[4], y, sens, mask=splits.test)
    return RunResult(cfg=cfg, seed=seed, epochs=records,
                     best_epoch=best[1], val_report=best[3],
                     test_report=test_report, edit_report=start.edit_report,
                     params=params, splits=splits)


def run_single(graph: Graph, table: NodeTable, cfg: TrainConfig, seed) -> RunResult:
    """One complete run: phase 1, then phase 2 on its result."""
    return train_full(phase_one(graph, table, cfg, seed), table.features,
                      table.labels, cfg, seed)


def _thread_count():
    raw = os.environ.get("FAIRGRAPH_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"FAIRGRAPH_THREADS must be an integer >= 1, got {raw!r}")
    return count


def _pool_map(fn, jobs):
    """[fn(job) for job in jobs] on up to FAIRGRAPH_THREADS threads, in job
    order."""
    workers = min(_thread_count(), len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def run_experiment(graph: Graph, table: NodeTable, cfg: TrainConfig):
    """One run per seed of the config, in the config's order; returns
    (results, aggregate)."""
    results = _pool_map(lambda seed: run_single(graph, table, cfg, seed), cfg.seeds)
    return results, aggregate_results(results)


def aggregate_results(results):
    """Mean and standard deviation of each test metric over runs."""
    agg = {"n_runs": len(results)}
    for name in SUMMARY_METRICS:
        values = np.array([getattr(r.test_report, name) for r in results])
        agg[name] = {"mean": float(values.mean()),
                     "std": float(values.std(ddof=0))}
    return agg


@dataclass
class GridCell:
    params: dict
    mean_val_score: float
    std_val_score: float
    aggregate: dict

    def to_dict(self):
        return asdict(self)


DEFAULT_GRID = {
    "K": [2, 5, 10],
    "K_prime": [2, 5, 10],
    "alpha": [0.2, 0.5, 0.9, 5, 10],
    "beta": [0.5, 1],
    "gamma": [0.02, 0.1, 1],
    "omega": [0.03, 0.09, 0.3, 0.7, 1],
    "eta": [0.06, 0.07, 0.08, 0.09, 0.1, 0.3, 0.8],
}


def grid_search(graph: Graph, table: NodeTable, base_cfg: TrainConfig, grid):
    """Evaluate every grid cell across the config's seeds and rank by mean
    best-epoch validation score (descending; ties by cell key). The grid
    maps each tunable weight to a nonempty list of values."""
    base = base_cfg.weights.to_dict()
    if not isinstance(grid, dict):
        raise ConfigError(f"a grid must be a mapping, got {type(grid).__name__}")
    for key, values in grid.items():
        if key not in base:
            raise ConfigError(f"grid key {key!r} not tunable "
                              f"(expected {sorted(base)})")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid key {key!r} needs a nonempty list of values, "
                              f"got {values!r}")
    keys = sorted(grid)
    cells = [dict(zip(keys, combo))
             for combo in itertools.product(*(grid[k] for k in keys))]

    cfgs = [replace(base_cfg, weights=LossWeights.from_dict({**base, **cell}))
            for cell in cells]
    # no cell changes phase 1: one pool runs it per seed, a second every
    # (cell, seed) phase 2
    seeds = base_cfg.seeds
    starts = _pool_map(lambda seed: phase_one(graph, table, base_cfg, seed), seeds)
    results = _pool_map(
        lambda job: train_full(job[1], table.features, table.labels, job[0], job[2]),
        [(cfg, start, seed) for cfg in cfgs for start, seed in zip(starts, seeds)])
    out = []
    for c, cell in enumerate(cells):
        cell_results = results[c * len(seeds):(c + 1) * len(seeds)]
        scores = np.array([r.val_report.score for r in cell_results])
        out.append(GridCell(params=cell, mean_val_score=float(scores.mean()),
                            std_val_score=float(scores.std(ddof=0)),
                            aggregate=aggregate_results(cell_results)))
    out.sort(key=lambda c: (-c.mean_val_score, json.dumps(c.params, sort_keys=True)))
    return out
