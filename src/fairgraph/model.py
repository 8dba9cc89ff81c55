"""Two-layer mean-aggregation encoder and one-layer sigmoid predictor.

Each layer concatenates a node's own row with the mean of its neighbors'
rows; layer one applies ReLU, the final layer is linear so the latent
geometry is unconstrained before the losses act. The latent matrix is
split column-wise into a content block C (used for prediction) and an
environment block E.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NeighborAggregator, Tensor
from .data import atomic_open
from .errors import ShapeError

CHECKPOINT_VERSION = 1


@dataclass
class EncoderParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    d_c: int
    d_e: int

    def tensors(self):
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class PredictorParams:
    w: Tensor
    b: Tensor

    def tensors(self):
        return [self.w, self.b]


@dataclass
class LatentState:
    """H = [C | E]; C is the first d_c columns, E the rest."""

    h: Tensor
    c: Tensor
    e: Tensor


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(d_in, hidden, d_c, seed):
    """Glorot-uniform weights, zero biases; deterministic in the seed. The
    environment block E is as wide as the content block C."""
    if min(d_in, hidden, d_c) <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    d_out = 2 * d_c
    enc = EncoderParams(
        w1=Tensor(_glorot(rng, 2 * d_in, hidden), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=Tensor(_glorot(rng, 2 * hidden, d_out), requires_grad=True),
        b2=Tensor(np.zeros(d_out), requires_grad=True),
        d_c=d_c, d_e=d_c)
    pred = PredictorParams(
        w=Tensor(_glorot(rng, d_c, 1), requires_grad=True),
        b=Tensor(np.zeros(1), requires_grad=True))
    return enc, pred


def encode(params: EncoderParams, agg: NeighborAggregator, x) -> LatentState:
    """Forward pass producing the latent state for every node of the graph
    that `agg` aggregates over."""
    x = ad.as_tensor(x)
    if x.value.ndim != 2 or x.value.shape[0] != agg.n:
        raise ShapeError(f"features must be ({agg.n}, d), got {x.value.shape}")
    if 2 * x.value.shape[1] != params.w1.value.shape[0]:
        raise ShapeError(
            f"feature width {x.value.shape[1]} incompatible with W1 {params.w1.value.shape}")
    h1 = ad.relu(ad.matmul(ad.hstack(x, ad.row_mean_neighbors(x, agg)), params.w1)
                 + params.b1)
    h = ad.matmul(ad.hstack(h1, ad.row_mean_neighbors(h1, agg)), params.w2) + params.b2
    c = ad.slice_cols(h, 0, params.d_c)
    e = ad.slice_cols(h, params.d_c, params.d_c + params.d_e)
    return LatentState(h=h, c=c, e=e)


def predict(phi: PredictorParams, c) -> Tensor:
    """Per-node positive-class probability, shape (n, 1)."""
    return ad.sigmoid(ad.matmul(ad.as_tensor(c), phi.w) + phi.b)


def hard_labels(probs):
    """Threshold at 0.5; the tie at exactly 0.5 goes to class 1."""
    values = probs.value if isinstance(probs, Tensor) else np.asarray(probs)
    return (values.reshape(-1) >= 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# checkpoints

def _array_payload(t: Tensor):
    return {"shape": list(t.value.shape), "data": t.value.reshape(-1).tolist()}


def _array_restore(payload, requires_grad=True):
    arr = np.asarray(payload["data"], dtype=np.float64).reshape(payload["shape"])
    return Tensor(arr, requires_grad=requires_grad)


def save_checkpoint(path, enc: EncoderParams, pred: PredictorParams, meta=None):
    """JSON checkpoint; float values round-trip bit-exactly through repr."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "d_c": enc.d_c,
        "d_e": enc.d_e,
        "encoder": {name: _array_payload(getattr(enc, name))
                    for name in ("w1", "b1", "w2", "b2")},
        "predictor": {name: _array_payload(getattr(pred, name))
                      for name in ("w", "b")},
        "meta": meta or {},
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path):
    """Returns (EncoderParams, PredictorParams, meta)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')}")
    enc = EncoderParams(
        w1=_array_restore(doc["encoder"]["w1"]),
        b1=_array_restore(doc["encoder"]["b1"]),
        w2=_array_restore(doc["encoder"]["w2"]),
        b2=_array_restore(doc["encoder"]["b2"]),
        d_c=int(doc["d_c"]), d_e=int(doc["d_e"]))
    pred = PredictorParams(w=_array_restore(doc["predictor"]["w"]),
                           b=_array_restore(doc["predictor"]["b"]))
    return enc, pred, doc.get("meta", {})
