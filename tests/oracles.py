"""Reference implementations the tests check fairgraph against.

A plain helper module (pytest does not collect it): tests import it by name,
as they import `test_losses`.

`grad_check` compares analytic gradients with central differences. It skips
every coordinate whose +/-eps probes land on different activation patterns
of a kinked op, because subgradients legitimately disagree across a kink.
The patterns are recorded by wrapping `ad.relu`, `ad.tabs` and `ad.clamp`
while the check runs; every caller in fairgraph looks those ops up as
`ad.<name>` at call time, so the wrappers see each of their calls. The
record lives in a context variable, so forward passes on other threads
never enter it.
"""

import contextvars
import threading
from contextlib import contextmanager

import numpy as np

from fairgraph import autodiff as ad
from fairgraph.errors import NumericError

_KINKED = {  # op -> the activation pattern of one call
    "relu": lambda a: a.value > 0,
    "tabs": lambda a: a.value >= 0,
    "clamp": lambda a, lo, hi: (a.value >= lo) & (a.value <= hi),
}

_patterns = contextvars.ContextVar("kink_patterns", default=None)
_hooks_lock = threading.Lock()  # one check at a time rebinds the ops


def _recording(name, op):
    def wrapped(a, *args):
        out = op(a, *args)
        patterns = _patterns.get()
        if patterns is not None:
            patterns.append(_KINKED[name](ad.as_tensor(a), *args))
        return out
    return wrapped


@contextmanager
def _kink_hooks():
    with _hooks_lock:
        saved = {name: getattr(ad, name) for name in _KINKED}
        for name, op in saved.items():
            setattr(ad, name, _recording(name, op))
        try:
            yield
        finally:
            for name, op in saved.items():
                setattr(ad, name, op)


def _probe(loss_fn):
    patterns = []
    token = _patterns.set(patterns)
    try:
        val = loss_fn().value
    finally:
        _patterns.reset(token)
    if not np.isfinite(val):
        raise NumericError("non-finite loss during finite-difference probe")
    return float(val), patterns


def grad_check(loss_fn, params, eps=1e-5, max_coords=24, seed=0):
    """Max relative error between analytic gradients and central differences.

    loss_fn() must rebuild the scalar loss from the current parameter values.
    Coordinates whose +/-eps probes land on different activation patterns
    (ReLU/abs/clamp masks) are skipped.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError("eps must lie in [1e-7, 1e-4]")
    analytic = ad.grad(loss_fn(), params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    with _kink_hooks():
        for p, g in zip(params, analytic):
            size = p.value.size
            if size <= max_coords:
                coords = np.arange(size)
            else:
                coords = rng.choice(size, size=max_coords, replace=False)
            flat = p.value.reshape(-1)
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


def sc_loss_dense(c, labels, participant_mask, kappa):
    """Dense reference for `losses.sc_loss`: its value and its gradient with
    respect to every row of c, built from full n_l x n_l matrices.

    It follows the loss as the tape once composed it (normalise, cosine
    matrix, t-vMF, exp, off-diagonal row sums, log, weighted sum) and runs the
    reverse pass op by op, so it shares no algebra with the fused kernel."""
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
