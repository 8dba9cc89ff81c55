"""Reference implementations the tests check fairgraph against.

A plain helper module (pytest does not collect it): tests import it by name,
as they import `test_losses`.

`grad_check` compares analytic gradients with central differences. It skips
every coordinate whose +/-eps probes land on different activation patterns
of a kinked op, because subgradients legitimately disagree across a kink.
Two patterns come off the forward pass each probe ran: the ReLU mask of
the encoder's first layer (`LatentState.active`) and the prediction clamp
(which probabilities lie inside [PROB_FLOOR, 1 - PROB_FLOOR]). Two more sit
inside fused loss kernels and are recorded by wrapping them while the check
runs: for `losses._suf_value_and_grad`, which pair logits h_i . h_j put
sigmoid inside the PROB_FLOOR clamp; for `losses._inv_value_and_grad`, the
sign of every cos(c_i, e_i), the kink of |cos|. Every caller in fairgraph
looks those names up in their module at call time, so the wrappers see
each of their calls. The record lives in a context variable, so forward
passes on other threads never enter it.
"""

import contextvars
import csv
import math
import threading
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import expit
from scipy.stats import rankdata

from fairgraph import losses
from fairgraph.data import NodeTable
from fairgraph.errors import DatasetParseError, MissingColumnError, NonBinarySensitiveError
from fairgraph.graph import UNKNOWN, NodeLabels, pair_codes
from fairgraph.losses import PROB_FLOOR
from fairgraph.model import encode, input_layer


def encode_features(params, agg, x):
    """`model.encode` from the raw features x: layer one's input, which a
    phase builds once, then the forward pass."""
    return encode(params, agg, input_layer(params, agg, x))


def _unit(x):
    """Rows scaled to unit L2 norm, with the norms and the divisors; zero
    rows stay zero."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe, norms, safe


def _suf_clamp_pattern(h, op, *_):
    p = expit((h[op.i] * h[op.j]).sum(axis=1))
    return (p >= PROB_FLOOR) & (p <= 1.0 - PROB_FLOOR)


def _cos_sign_pattern(c, e, *_):
    return (_unit(c)[0] * _unit(e)[0]).sum(axis=1) >= 0


_KINKED = {  # (module, kernel) -> the activation pattern of one call
    (losses, "_suf_value_and_grad"): _suf_clamp_pattern,
    (losses, "_inv_value_and_grad"): _cos_sign_pattern,
}

_patterns = contextvars.ContextVar("kink_patterns", default=None)
_hooks_lock = threading.Lock()  # one check at a time rebinds the kernels


def _recording(op, pattern):
    def wrapped(*args):
        out = op(*args)
        patterns = _patterns.get()
        if patterns is not None:
            patterns.append(pattern(*args))
        return out
    return wrapped


@contextmanager
def _kink_hooks():
    with _hooks_lock:
        saved = {key: getattr(*key) for key in _KINKED}
        for (module, name), op in saved.items():
            setattr(module, name, _recording(op, _KINKED[module, name]))
        try:
            yield
        finally:
            for (module, name), op in saved.items():
                setattr(module, name, op)


class Evaluation(NamedTuple):
    """What a grad_check loss function returns: the loss, the analytic
    gradient of each parameter, and the forward pass's encoder state and
    predictor probabilities where it ran them."""

    value: float
    grads: list
    latent: object = None
    probs: np.ndarray | None = None


def _probe(loss_fn):
    patterns = []
    token = _patterns.set(patterns)
    try:
        ev = Evaluation(*loss_fn())
    finally:
        _patterns.reset(token)
    if not np.isfinite(ev.value):
        raise FloatingPointError("non-finite loss during finite-difference probe")
    if ev.latent is not None:
        patterns.append(ev.latent.active)
    if ev.probs is not None:
        patterns.append((ev.probs >= PROB_FLOOR) & (ev.probs <= 1.0 - PROB_FLOOR))
    return float(ev.value), patterns


def grad_check(loss_fn, params, eps=1e-5, max_coords=24, seed=0):
    """Max relative error between analytic gradients and central differences.

    params are contiguous float arrays, perturbed in place. loss_fn() must
    evaluate the loss at their current values and return an Evaluation, or
    a (value, grads) tuple when no encoder or predictor is involved.
    Coordinates whose +/-eps probes land on different activation patterns
    (ReLU and prediction clamp masks, the suf clamp, the signs of
    cos(c_i, e_i)) are skipped.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError("eps must lie in [1e-7, 1e-4]")
    analytic = Evaluation(*loss_fn()).grads
    rng = np.random.default_rng(seed)
    worst = 0.0
    with _kink_hooks():
        for p, g in zip(params, analytic, strict=True):
            flat = p.reshape(-1)
            if not np.shares_memory(flat, p):
                raise ValueError("parameters must be contiguous arrays")
            size = p.size
            if size <= max_coords:
                coords = np.arange(size)
            else:
                coords = rng.choice(size, size=max_coords, replace=False)
            for i in coords:
                x0 = flat[i]
                flat[i] = x0 + eps
                f_plus, pat_plus = _probe(loss_fn)
                flat[i] = x0 - eps
                f_minus, pat_minus = _probe(loss_fn)
                flat[i] = x0
                if len(pat_plus) != len(pat_minus) or any(
                        a.shape != b.shape or not np.array_equal(a, b)
                        for a, b in zip(pat_plus, pat_minus)):
                    continue
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = float(g.reshape(-1)[i])
                rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                worst = max(worst, rel)
    return worst


def tvmf(c_i, c_j, kappa) -> float:
    """Bounded angular similarity between two vectors:
    (1 + cos) / (1 + kappa*(1 - cos)) - 1. Zero vectors behave as cos = 0."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    c_i = np.asarray(c_i, dtype=np.float64).reshape(-1)
    c_j = np.asarray(c_j, dtype=np.float64).reshape(-1)
    ni, nj = np.linalg.norm(c_i), np.linalg.norm(c_j)
    cos = 0.0 if ni == 0 or nj == 0 else float(c_i @ c_j / (ni * nj))
    cos = min(1.0, max(-1.0, cos))
    return (1.0 + cos) / (1.0 + kappa * (1.0 - cos)) - 1.0


def auc_by_rankdata(scores, labels):
    """The Mann-Whitney AUC * 100 as `metrics.roc_auc` computed it with
    scipy's average ranks, operation for operation."""
    y = np.asarray(labels).reshape(-1).astype(np.int64)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    ranks = rankdata(scores, method="average")
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg) * 100.0)


def sc_loss_dense(c, labels, participant_mask, kappa):
    """Dense reference for `losses.sc_loss`: its value and its gradient with
    respect to every row of c, built from full n_l x n_l matrices.

    It follows the loss op by op, as the package's former reverse-mode tape
    composed it (normalise, cosine matrix, t-vMF, exp, off-diagonal row
    sums, log, weighted sum), and runs the reverse pass op by op, so it
    shares no algebra with the fused kernel."""
    c = np.asarray(c, dtype=np.float64)
    idx = np.flatnonzero(np.asarray(participant_mask, dtype=bool))
    y = np.asarray(labels).reshape(-1)[idx]
    x = c[idx]
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0, norms, 1.0)
    u = x / safe
    off_diag = 1.0 - np.eye(len(idx))
    pos = (y[:, None] == y[None, :]) * off_diag
    pos_counts = pos.sum(axis=1, keepdims=True)
    weights = np.divide(pos, pos_counts, out=np.zeros_like(pos), where=pos_counts > 0)

    cos = u @ u.T
    num = cos + 1.0
    den = (1.0 - cos) * kappa + 1.0
    phi = num / den - 1.0
    masked_exp = np.exp(phi) * off_diag
    row_sums = masked_exp.sum(axis=1, keepdims=True)
    value = -np.sum(weights * (phi - np.log(row_sums)))

    g_phi = -weights + weights.sum(axis=1, keepdims=True) / row_sums * masked_exp
    g_num = g_phi / den
    g_den = -g_phi * num / (den * den)
    g_cos = g_num - kappa * g_den
    g_u = g_cos @ u + g_cos.T @ u
    dot = (g_u * u).sum(axis=1, keepdims=True)
    g_x = np.where(norms > 0, (g_u - u * dot) / safe, 0.0)
    grad = np.zeros_like(c)
    grad[idx] = g_x
    return float(value), grad


# The op-by-op compositions the fused pairwise kernels replaced (the `_tape`
# references, after the reverse-mode tape that once differentiated them),
# forward and reverse: gather the pair rows, apply the row ops, reduce, then
# scatter each pair's gradient back with np.add.at. They share no algebra
# with the kernels, which sum over pairs first and differentiate once.

def _unit_vjp(g, u, norms, safe):
    """Reverse of _unit: the gradient with respect to x given g for u."""
    dot = (g * u).sum(axis=1, keepdims=True)
    return np.where(norms > 0, (g - u * dot) / safe, 0.0)


def _scatter_rows(n, idx, g):
    out = np.zeros((n, g.shape[1]))
    np.add.at(out, idx, g)
    return out


def suf_loss_tape(h, pos_edges, neg_edges):
    """Reference for `losses.suf_loss`: its value and dL/dh."""
    h = np.asarray(h, dtype=np.float64)
    pos = np.asarray(pos_edges, dtype=np.int64).reshape(-1, 2)
    neg = np.asarray(neg_edges, dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([pos, neg])
    a = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))]).reshape(-1, 1)
    hi, hj = h[pairs[:, 0]], h[pairs[:, 1]]
    logits = (hi * hj).sum(axis=1, keepdims=True)
    sig = np.empty_like(logits)
    up = logits >= 0
    sig[up] = 1.0 / (1.0 + np.exp(-logits[up]))
    sig[~up] = np.exp(logits[~up]) / (1.0 + np.exp(logits[~up]))
    inside = (sig >= PROB_FLOOR) & (sig <= 1.0 - PROB_FLOOR)
    p = np.clip(sig, PROB_FLOOR, 1.0 - PROB_FLOOR)
    ll = a * np.log(p) + (1.0 - a) * np.log(1.0 - p)
    value = -(ll.sum() * (1.0 / len(pairs)))

    g_ll = np.full_like(ll, -1.0 / len(pairs))
    g_p = g_ll * a / p - g_ll * (1.0 - a) / (1.0 - p)
    g_logits = g_p * inside * sig * (1.0 - sig)
    n = h.shape[0]
    grad = _scatter_rows(n, pairs[:, 0], g_logits * hj) \
        + _scatter_rows(n, pairs[:, 1], g_logits * hi)
    return float(value), grad


def inv_loss_tape(c, e, cf, gamma):
    """Reference for `losses.inv_loss`: its value, dL/dc and dL/de. Each pair
    is normalised after its gather, and d|cos|/dcos is +1 at cos = 0."""
    c = np.asarray(c, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = c.shape[0]
    uc, c_norms, c_safe = _unit(c)
    ue, e_norms, e_safe = _unit(e)
    cos = (uc * ue).sum(axis=1, keepdims=True)
    value = np.abs(cos).sum() * (1.0 / n) * gamma
    g_cos = gamma * (1.0 / n) * np.where(cos >= 0, 1.0, -1.0)
    grad_c = _unit_vjp(g_cos * ue, uc, c_norms, c_safe)
    grad_e = _unit_vjp(g_cos * uc, ue, e_norms, e_safe)
    for x, grad, (i, j) in ((c, grad_c, cf.pairs_e()), (e, grad_e, cf.pairs_c())):
        if not len(i):
            continue
        ua, a_norms, a_safe = _unit(x[i])
        ub, b_norms, b_safe = _unit(x[j])
        dist = 1.0 - (ua * ub).sum(axis=1, keepdims=True)
        value = value + dist.sum() * (1.0 / len(i))
        g_cos = np.full((len(i), 1), -1.0 / len(i))
        grad += _scatter_rows(n, i, _unit_vjp(g_cos * ub, ua, a_norms, a_safe)) \
            + _scatter_rows(n, j, _unit_vjp(g_cos * ua, ub, b_norms, b_safe))
    return float(value), grad_c, grad_e


def symmetric_coo(n, i, j, w):
    """W + W^T built afresh for one product, as the pairwise kernels built
    it before `losses.PairOperator` kept one per pair list: the reference a
    reweighed operator must match bit for bit."""
    return sp.coo_matrix((np.concatenate([w, w]),
                          (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(n, n))


def logistic_two_branch(x):
    """The sigmoid as `autodiff.logistic` computed it in two passes:
    1 / (1 + exp(-x)) on x >= 0, exp(x) / (1 + exp(x)) on the rest."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def negative_edges_by_setdiff(g, count, seed):
    """`losses.sample_negative_edges`' enumerated-pool branch as it drew
    before: the pool is np.setdiff1d of every triu_indices pair's code and
    the edge codes, then one draw without replacement."""
    n = g.n
    rng = np.random.default_rng(seed)
    every = pair_codes(n, np.column_stack(np.triu_indices(n, k=1)))
    pool = np.setdiff1d(every, pair_codes(n, g.edge_array), assume_unique=True)
    picked = np.sort(pool[rng.choice(len(pool), size=count, replace=False)])
    return np.stack([picked // n, picked % n], axis=1)


def nearest_scan(x, allowed, k):
    """Per row i, the at most k rows j with allowed[i, j] nearest to x_i, in
    (|x_i - x_j|^2, j) order: an exact scan, one row at a time, as the
    reference for `losses._nearest`."""
    ids = []
    for i, row in enumerate(allowed):
        cand = np.flatnonzero(row)
        d2 = ((x[cand] - x[i]) ** 2).sum(axis=1)
        ids.append(cand[np.lexsort((cand, d2))[:k]])
    return ids


def env_loss_tape(e, sensitive, k_prime):
    """Reference for `losses.env_loss`: its value and dL/de; a zero distance
    passes no gradient. Each node's K' nearest opposite-group rows come from
    `nearest_scan`."""
    e = np.asarray(e, dtype=np.float64)
    s = np.asarray(sensitive).reshape(-1)
    n = len(s)
    nearest = nearest_scan(e, s[:, None] != s[None, :], k_prime)
    counts = np.array([len(ids) for ids in nearest])
    anchors = np.repeat(np.arange(n), counts)
    partners = np.concatenate(nearest)
    w = (1.0 / (n * counts[anchors])).reshape(-1, 1)
    diff = e[anchors] - e[partners]
    dist = np.sqrt((diff * diff).sum(axis=1, keepdims=True))
    value = -(w * dist).sum()

    g_diff = np.where(dist > 0, -w * diff / np.where(dist > 0, dist, 1.0), 0.0)
    grad = _scatter_rows(n, anchors, g_diff) - _scatter_rows(n, partners, g_diff)
    return float(value), grad


def edge_list_by_line(path):
    """Reference for `data.load_edge_list`: the file read and checked one
    line at a time, every error raised at the first line that has one."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                u, v = float(parts[0]), float(parts[1])
            except ValueError:
                u = v = math.nan
            if not (u.is_integer() and v.is_integer()):
                raise ValueError(f"{path}:{lineno}: node ids must be whole numbers: {line!r}")
            pairs.append((int(u), int(v)))
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise ValueError(f"{path}: node ids must fit in int64") from exc


def _is_missing(raw):
    text = str(raw).strip()
    return text == "" or text.lower() in ("nan", "none", "na")


def _map_binary(raw, positive_value):
    return 1 if str(raw).strip() == str(positive_value) else 0


def table_by_cell(features_path, meta):
    """Reference for the `features.csv` part of `data.load_dataset`, for a
    meta that passed its own checks: the node table read one row and one
    cell at a time, every error raised at the first cell that has one."""
    try:
        with open(features_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
    except (OSError, StopIteration, csv.Error, ValueError) as exc:
        raise DatasetParseError(f"cannot read {features_path}: {exc}") from exc
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DatasetParseError(f"{features_path}: column names {repeated} repeat")
    for col in (meta["label_col"], meta["sensitive_col"]):
        if col not in header:
            raise MissingColumnError(f"column {col!r} not in {header}")
    col_index = {name: i for i, name in enumerate(header)}
    drop = set(meta.get("drop_cols", []))
    if "feature_cols" in meta:
        feature_cols = meta["feature_cols"]
    else:
        feature_cols = [c for c in header if c != meta["label_col"] and c not in drop]

    n = len(rows)
    labels_raw = np.full(n, UNKNOWN, dtype=np.int64)
    sensitive = np.zeros(n, dtype=np.int64)
    features = np.empty((n, len(feature_cols)), dtype=np.float64)
    sens_values, label_values = set(), set()
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetParseError(
                f"{features_path}: row {i + 2} has {len(row)} fields, "
                f"expected {len(header)}")
        raw_label = row[col_index[meta["label_col"]]]
        if not _is_missing(raw_label):
            label_values.add(raw_label.strip())
            labels_raw[i] = _map_binary(raw_label, meta["positive_value"])
        raw_sens = row[col_index[meta["sensitive_col"]]]
        if _is_missing(raw_sens):
            raise NonBinarySensitiveError(
                f"row {i + 2}: sensitive attribute must be defined for every node")
        sens_values.add(str(raw_sens).strip())
        sensitive[i] = _map_binary(raw_sens, meta["sensitive_positive_value"])
        for j, col in enumerate(feature_cols):
            if col == meta["sensitive_col"]:
                features[i, j] = float(sensitive[i])
                continue
            raw = row[col_index[col]]
            try:
                features[i, j] = 0.0 if _is_missing(raw) else float(raw)
            except ValueError as exc:
                raise DatasetParseError(
                    f"row {i + 2}, column {col!r}: not numeric: {raw!r}") from exc
    if len(sens_values) > 2:
        raise NonBinarySensitiveError(
            f"sensitive column {meta['sensitive_col']!r} has "
            f"{len(sens_values)} distinct values; mapping one of them to 1 "
            "would silently merge the rest")
    for col, key, seen, mapped in ((meta["label_col"], "positive_value", label_values,
                                    labels_raw),
                                   (meta["sensitive_col"], "sensitive_positive_value",
                                    sens_values, sensitive)):
        if seen and not (mapped == 1).any():
            shown = sorted(seen)
            raise DatasetParseError(
                f"column {col!r}: no cell equals its {key} {meta[key]!r}, so every "
                f"node would map to 0; it holds {shown[:5]}"
                + (f" and {len(shown) - 5} more" if len(shown) > 5 else ""))
    return NodeTable(features=features,
                     labels=NodeLabels.create(sensitive=sensitive, class_label=labels_raw),
                     feature_names=tuple(feature_cols))
