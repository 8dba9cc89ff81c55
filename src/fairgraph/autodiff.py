"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray; each operation records its parents and a
vector-Jacobian product, and `grad` accumulates gradients in reverse
creation order, so accumulation order is fixed and repeated runs are
bit-identical. `logistic`, `unit_rows` and `unit_rows_backward` are the
array forms of `sigmoid` and `row_l2_normalize`, shared with the fused loss
kernels that compute their gradients in closed form.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, ShapeError, TapeError

_COUNTER = itertools.count()


class Tensor:
    """Node in the computation graph. Leaves with requires_grad=True are the
    trainable parameters; everything else is treated as a constant."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_id")

    def __init__(self, value, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._id = next(_COUNTER)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and arrays are coerced to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor):
    return t.requires_grad or bool(t._parents)


def _make(value, parents):
    """New graph node; parents is a list of (tensor, vjp) pairs."""
    kept = tuple((p, f) for p, f in parents if _tracked(p))
    out = Tensor(value)
    out._parents = kept
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
    av, bv = a.value, b.value
    return _make(av @ bv, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    ash, bsh = a.value.shape, b.value.shape
    return _make(a.value + b.value,
                 [(a, lambda g: _unbroadcast(g, ash)), (b, lambda g: _unbroadcast(g, bsh))])


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    ash, bsh = a.value.shape, b.value.shape
    return _make(a.value - b.value,
                 [(a, lambda g: _unbroadcast(g, ash)), (b, lambda g: _unbroadcast(-g, bsh))])


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.value, b.value
    return _make(av * bv, [(a, lambda g: _unbroadcast(g * bv, av.shape)),
                           (b, lambda g: _unbroadcast(g * av, bv.shape))])


def neg(a):
    a = as_tensor(a)
    return _make(-a.value, [(a, lambda g: -g)])


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    av = a.value

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, av.shape).copy()

    return _make(av.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


def relu(a):
    a = as_tensor(a)
    mask = a.value > 0
    return _make(np.where(mask, a.value, 0.0), [(a, lambda g: g * mask)])


def logistic(x):
    """1 / (1 + exp(-x)) elementwise, never overflowing: negative entries
    take the exp(x) / (1 + exp(x)) form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(a):
    a = as_tensor(a)
    out = logistic(a.value)
    return _make(out, [(a, lambda g: g * out * (1.0 - out))])


def tlog(a):
    a = as_tensor(a)
    if np.any(a.value <= 0):
        raise NumericError("log of non-positive value")
    av = a.value
    return _make(np.log(av), [(a, lambda g: g / av)])


def clamp(a, lo, hi):
    a = as_tensor(a)
    inside = (a.value >= lo) & (a.value <= hi)
    return _make(np.clip(a.value, lo, hi), [(a, lambda g: g * inside)])


def hstack(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeError(f"hstack: {a.value.shape} vs {b.value.shape}")
    ka = a.value.shape[1]
    return _make(np.concatenate([a.value, b.value], axis=1),
                 [(a, lambda g: g[:, :ka]), (b, lambda g: g[:, ka:])])


def slice_cols(a, start, stop):
    a = as_tensor(a)
    av = a.value

    def vjp(g):
        out = np.zeros_like(av)
        out[:, start:stop] = g
        return out

    # copy so the slice never aliases the parent's storage
    return _make(av[:, start:stop].copy(), [(a, vjp)])


def gather_rows(a, idx):
    """Rows `idx` (non-negative, repeats allowed) of `a`.

    The reverse pass is `pick.T @ g` with `pick` the (len(idx), n) one-hot
    selection matrix: scipy's kernel adds g[k] into row idx[k] for k in
    order, starting from zero, so the result is bit-identical to an
    unbuffered scatter-add."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    av = a.value

    def vjp(g):
        pick = sp.csr_matrix((np.ones(len(idx)), idx, np.arange(len(idx) + 1)),
                             shape=(len(idx), av.shape[0]))
        return pick.T @ g

    return _make(av[idx], [(a, vjp)])


def scalar_with_grad(value, *inputs):
    """Scalar node for a fused kernel that computes a loss and its gradients
    together in closed form; `inputs` are (tensor, d value / d tensor) pairs."""
    return _make(np.float64(value), [(as_tensor(a), lambda g, grad_a=grad_a: g * grad_a)
                                     for a, grad_a in inputs])


def unit_rows(x):
    """Rows of the array x scaled to unit L2 norm (all-zero rows stay zero),
    and the (n, 1) column of norms."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    return x / np.where(norms > 0, norms, 1.0), norms


def unit_rows_backward(g, u, norms):
    """Gradient with respect to x, given the gradient g with respect to u,
    where (u, norms) = unit_rows(x); zero rows get zero."""
    back = (g - u * (g * u).sum(axis=1, keepdims=True)) / np.where(norms > 0, norms, 1.0)
    return np.where(norms > 0, back, 0.0)


def row_l2_normalize(a):
    """Rows scaled to unit L2 norm; all-zero rows stay zero."""
    a = as_tensor(a)
    out, norms = unit_rows(a.value)
    return _make(out, [(a, lambda g: unit_rows_backward(g, out, norms))])


class NeighborAggregator:
    """Per-node neighbour means over a fixed graph, as one sparse operator.

    `adj` is the unit-weight symmetric closure of the graph's edge array in
    CSR form, each row's neighbours in ascending order; `inv_deg` is
    1/degree (0 for isolated nodes). The weights stay 1 and the scaling by 1/degree comes after the
    product, so every mean is the exact sum of its neighbours, added in
    ascending id order from zero, times 1/degree.
    """

    def __init__(self, graph):
        ea = graph.edge_array
        row = np.concatenate([ea[:, 0], ea[:, 1]])
        col = np.concatenate([ea[:, 1], ea[:, 0]])
        order = np.argsort(row * graph.n + col)  # by row, then column
        deg = np.bincount(row, minlength=graph.n)
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        indices = col[order]
        self.n = graph.n
        self.adj = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                                 shape=(graph.n, graph.n))
        inv = np.zeros(graph.n, dtype=np.float64)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        self.inv_deg = inv


def row_mean_neighbors(a, agg):
    """Mean of neighbor rows per node; isolated nodes get a zero row.

    `agg` is the graph's NeighborAggregator. The adjacency is symmetric, so
    the reverse pass multiplies by `adj` itself.
    """
    a = as_tensor(a)
    av = a.value
    if av.shape[0] != agg.n:
        raise ShapeError(f"row count {av.shape[0]} != node count {agg.n}")
    inv = agg.inv_deg[:, None]
    return _make((agg.adj @ av) * inv, [(a, lambda g: agg.adj @ (g * inv))])


# ---------------------------------------------------------------------------
# reverse pass

def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node._id in seen:
            continue
        seen.add(node._id)
        stack.append((node, True))
        for parent, _ in node._parents:
            if parent._id not in seen:
                stack.append((parent, False))
    return order


def backward(loss):
    """Populate .grad on every tensor reachable from the scalar loss."""
    loss = as_tensor(loss)
    if loss.value.shape != ():
        raise TapeError(f"backward needs a scalar, got shape {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node._parents:
            contribution = vjp(node.grad)
            parent.grad = contribution if parent.grad is None \
                else parent.grad + contribution


def grad(loss, params):
    """Gradients of a scalar loss with respect to parameter tensors.

    Raises TapeError when a parameter never entered the recorded computation
    (zero would silently hide an unrecorded dependency).
    """
    for p in params:
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise TapeError("parameters must be Tensors with requires_grad=True")
        p.grad = None  # drop leftovers from earlier reverse passes
    backward(loss)
    out = []
    for p in params:
        if p.grad is None:
            raise TapeError("parameter never entered the recorded computation")
        out.append(p.grad)
    return out
