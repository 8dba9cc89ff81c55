"""Two-layer mean-aggregation encoder and one-layer sigmoid predictor.

The encoder takes raw features and z-scores them with the training rows'
statistics it carries. Each layer concatenates a node's own row with the
mean of its neighbors' rows; layer one applies ReLU, the final layer is
linear so the latent geometry is unconstrained before the losses act. The
latent matrix is split column-wise into a content block C (used for
prediction) and an environment block E.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NeighborAggregator
from .data import atomic_open, read_json
from .errors import ConfigError, ShapeError

CHECKPOINT_VERSION = 1


# the trained arrays of each checkpoint block, in the order `arrays()`,
# `autodiff.grad` and the optimizer list them
CHECKPOINT_ARRAYS = {"encoder": ("w1", "b1", "w2", "b2"), "predictor": ("w", "b")}


@dataclass
class Params:
    """The encoder's weights w1, b1, w2, b2 and the predictor's w, b, trained
    as one set; the content block's width d_c (the environment block is as
    wide); and the per-column feature mean and std that `encode`
    standardizes its input with. The statistics are not trained, so
    `arrays()` leaves them out."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w: np.ndarray
    b: np.ndarray
    d_c: int
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def arrays(self):
        return [getattr(self, name) for names in CHECKPOINT_ARRAYS.values()
                for name in names]


@dataclass
class LatentState:
    """H = [C | E]; C is the first d_c columns of H and E the rest, both
    views of H. The rest is the forward cache `autodiff.grad` reads:
    the layer inputs z1 = [X | mean X] and z2 = [H1 | mean H1], the ReLU
    mask `active` of layer one, and the aggregator."""

    h: np.ndarray
    c: np.ndarray
    e: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    active: np.ndarray
    agg: NeighborAggregator


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(d_in, hidden, d_c, seed):
    """Glorot-uniform weights, zero biases, identity feature statistics
    (mean 0, std 1); deterministic in the seed. The environment block E is
    as wide as the content block C."""
    if min(d_in, hidden, d_c) <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    d_out = 2 * d_c
    # keyword arguments evaluate in order: the draws are w1, w2, then w
    return Params(w1=_glorot(rng, 2 * d_in, hidden), b1=np.zeros(hidden),
                  w2=_glorot(rng, 2 * hidden, d_out), b2=np.zeros(d_out),
                  w=_glorot(rng, d_c, 1), b=np.zeros(1), d_c=d_c,
                  feature_mean=np.zeros(d_in), feature_std=np.ones(d_in))


def feature_stats(features, train_mask):
    """Per-column (mean, std) of the training rows; a constant column keeps
    std 1, so it standardizes to zeros rather than NaNs."""
    train_mask = np.asarray(train_mask, dtype=bool)
    if not train_mask.any():
        raise ValueError("empty training mask")
    rows = np.asarray(features, dtype=np.float64)[train_mask]
    std = rows.std(axis=0)
    return rows.mean(axis=0), np.where(std > 0, std, 1.0)


def encode(params: Params, agg: NeighborAggregator, x) -> LatentState:
    """Forward pass producing the latent state for every node of the graph
    that `agg` aggregates over, from the raw features x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != agg.n:
        raise ShapeError(f"features must be ({agg.n}, d), got {x.shape}")
    if 2 * x.shape[1] != params.w1.shape[0]:
        raise ShapeError(
            f"feature width {x.shape[1]} incompatible with W1 {params.w1.shape}")
    x = (x - params.feature_mean) / params.feature_std
    z1 = np.concatenate([x, ad.row_mean_neighbors(x, agg)], axis=1)
    a1 = z1 @ params.w1 + params.b1
    active = a1 > 0
    h1 = np.where(active, a1, 0.0)
    z2 = np.concatenate([h1, ad.row_mean_neighbors(h1, agg)], axis=1)
    h = z2 @ params.w2 + params.b2
    return LatentState(h=h, c=h[:, :params.d_c], e=h[:, params.d_c:], z1=z1, z2=z2,
                       active=active, agg=agg)


def predict(params: Params, c):
    """Per-node positive-class probability, shape (n, 1)."""
    return ad.logistic(c @ params.w + params.b)


# ---------------------------------------------------------------------------
# checkpoints

def _array_payload(a):
    return {"shape": list(a.shape), "data": a.reshape(-1).tolist()}


def _finite_array(path, name, values):
    """The JSON list `values` as a float64 array. A value that is not a
    finite int or float (a bool, string, null, NaN, an infinity or an int
    beyond float64's range) is a ConfigError naming the array `name`."""
    for v in values:
        # NaN fails the comparison, and a Python int compares exactly
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not abs(v) <= sys.float_info.max:
            raise ConfigError(f"checkpoint {path}: {name} holds {v!r}, "
                              "not a finite number")
    return np.asarray(values, dtype=np.float64)


def save_checkpoint(path, params: Params, meta=None):
    """JSON checkpoint; float values round-trip bit-exactly through repr.
    The environment block's width `d_e` is written as d_c. The feature
    statistics head the `meta` block."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "d_c": params.d_c,
        "d_e": params.d_c,
        **{block: {name: _array_payload(getattr(params, name)) for name in names}
           for block, names in CHECKPOINT_ARRAYS.items()},
        "meta": {"feature_mean": params.feature_mean.tolist(),
                 "feature_std": params.feature_std.tolist(), **(meta or {})},
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path):
    """Returns (Params, meta). A file that cannot be read, another format
    version, a missing field, a `meta` that is not a mapping, an environment
    block not as wide as the content block (d_e != d_c), an array value that
    is not a finite number, arrays whose shapes disagree with each other or
    with d_c, or a feature std <= 0 are a ConfigError."""
    doc = read_json(path, "checkpoint")
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint {path}: unsupported format version {version!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError(f"checkpoint {path}: meta must be a mapping")
    try:
        arrays = {name: _finite_array(path, name, doc[block][name]["data"])
                  .reshape(doc[block][name]["shape"])
                  for block, names in CHECKPOINT_ARRAYS.items() for name in names}
        for name in ("feature_mean", "feature_std"):
            arrays[name] = _finite_array(path, f"feature statistics {name}", meta[name])
        d_c, d_e = doc["d_c"], doc["d_e"]
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: bad array: {exc}") from exc
    if not (isinstance(d_c, int) and not isinstance(d_c, bool) and d_c > 0
            and d_e == d_c):
        raise ConfigError(f"checkpoint {path}: d_c and d_e must be one positive "
                          f"integer, got {d_c!r} and {d_e!r}")
    w1 = arrays["w1"]
    if w1.ndim != 2 or w1.shape[0] % 2 or 0 in w1.shape:
        raise ConfigError(f"checkpoint {path}: w1 has shape {w1.shape}")
    hidden = w1.shape[1]
    expected = {"b1": (hidden,), "w2": (2 * hidden, 2 * d_c), "b2": (2 * d_c,),
                "w": (d_c, 1), "b": (1,), "feature_mean": (w1.shape[0] // 2,),
                "feature_std": (w1.shape[0] // 2,)}
    wrong = [f"{name} {arrays[name].shape} != {shape}"
             for name, shape in expected.items() if arrays[name].shape != shape]
    if wrong:
        raise ConfigError(f"checkpoint {path}: array shapes disagree: {', '.join(wrong)}")
    if not (arrays["feature_std"] > 0).all():
        raise ConfigError(f"checkpoint {path}: feature statistics must have "
                          "every std > 0")
    return Params(d_c=d_c, **arrays), meta
