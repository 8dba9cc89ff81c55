"""The closed-form model backward, its array kernels, and the
finite-difference checker."""

import threading
import time

import numpy as np
import pytest

from fairgraph import autodiff as ad
from fairgraph import losses
from fairgraph.errors import ShapeError
from fairgraph.graph import Graph
from fairgraph.model import encode, init_params
from oracles import grad_check


def _model(seed=5, n=7, d_in=3, hidden=4, d_c=2):
    """A small graph (node n-1 isolated), features and model parameters."""
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 2)] + [(0, 3)])
    rng = np.random.default_rng(seed)
    return ad.NeighborAggregator(g), rng.standard_normal((n, d_in)), \
        init_params(d_in, hidden, d_c, seed)


def test_relu_on_all_negative_is_zero():
    agg, x, params = _model()
    params.w1[...] = 0.0
    params.b1[...] = -1.0
    latent = encode(params, agg, x)
    assert not latent.active.any()
    assert np.array_equal(latent.z2, np.zeros_like(latent.z2))
    g_w1, g_b1, *_ = ad.grad(params, latent, np.ones_like(latent.h), np.ones((agg.n, 1)))
    assert not np.any(g_w1) and not np.any(g_b1)


def test_row_mean_neighbors_isolated_node_zero_row():
    g = Graph.from_edges(3, [(0, 1)])  # node 2 isolated
    x = np.arange(6, dtype=float).reshape(3, 2)
    out = ad.row_mean_neighbors(x, ad.NeighborAggregator(g))
    assert np.array_equal(out[2], np.zeros(2))
    assert np.array_equal(out[0], x[1])


def test_quadratic_closed_form():
    # L = sum(H * H), so dL/dH = 2H, and the second layer's gradients are
    # [H1 | mean H1]^T 2H and the column sums of 2H
    agg, x, params = _model(seed=2)
    latent = encode(params, agg, x)
    h1 = np.maximum(np.hstack([x, ad.row_mean_neighbors(x, agg)]) @ params.w1 + params.b1, 0.0)
    z2 = np.hstack([h1, ad.row_mean_neighbors(h1, agg)])
    _, _, g_w2, g_b2, _, _ = ad.grad(params, latent, 2.0 * latent.h, np.zeros((agg.n, 1)))
    assert np.allclose(g_w2, z2.T @ (2.0 * (z2 @ params.w2 + params.b2)), atol=1e-12)
    assert np.allclose(g_b2, 2.0 * latent.h.sum(axis=0), atol=1e-12)


def test_shape_errors():
    agg, x, params = _model()
    with pytest.raises(ShapeError):
        ad.row_mean_neighbors(np.ones((agg.n + 1, 2)), agg)
    with pytest.raises(ShapeError):
        encode(params, agg, x[:, :2])


def test_grad_is_fresh_between_losses():
    # the backward keeps no state: a second call on the same forward cache
    # depends on its own upstream gradients only, and shares no array with
    # the first
    agg, x, params = _model(seed=3)
    latent = encode(params, agg, x)
    rng = np.random.default_rng(3)
    g_h, g_logit = rng.standard_normal(latent.h.shape), rng.standard_normal((agg.n, 1))
    first = ad.grad(params, latent, g_h, g_logit)
    kept = [g.copy() for g in first]
    other = ad.grad(params, latent, 3.0 * g_h, np.zeros_like(g_logit))
    assert not np.any(other[5])
    again = ad.grad(params, latent, g_h, g_logit)
    for a, b, c in zip(first, kept, again):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    assert not any(np.shares_memory(a, b) for a in first for b in other)


def test_broadcast_add_gradient():
    # each bias is broadcast over the nodes, so its gradient is the column
    # sum of its layer's output gradient
    agg, x, params = _model(seed=4)
    rng = np.random.default_rng(4)
    g_h, g_logit = rng.standard_normal((agg.n, 4)), rng.standard_normal((agg.n, 1))
    latent = encode(params, agg, x)
    _, _, _, g_b2, _, g_b = ad.grad(params, latent, g_h, g_logit)
    assert np.array_equal(g_b2, g_h.sum(axis=0))
    assert np.array_equal(g_b, g_logit.sum(axis=0))

    def loss_fn():
        lat = encode(params, agg, x)
        value = (g_h * lat.h).sum()
        return value, ad.grad(params, lat, g_h, np.zeros((agg.n, 1)))[:4], lat

    assert grad_check(loss_fn, params.arrays()[:4], eps=1e-5) < 1e-8


def test_gather_scatter_gradient():
    # the contrast gathers the participant rows, so rows outside the mask
    # get zero and the rest pass the finite-difference check
    rng = np.random.default_rng(4)
    c = rng.standard_normal((9, 3))
    mask = np.array([1, 0, 1, 1, 0, 1, 1, 0, 1], bool)
    y = np.array([0, 1, 0, 1, 1, 1, 0, 0, 1])

    def loss_fn():
        value, grad = losses.sc_loss(c, y, mask, 1.5)
        return value, [grad]

    assert not np.any(loss_fn()[1][0][~mask])
    assert grad_check(loss_fn, [c], eps=1e-5) < 1e-8


def test_row_normalize_gradient():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((5, 3))
    coeff = rng.standard_normal((5, 3))

    def loss_fn():
        u, norms = ad.unit_rows(w)
        return (u * coeff).sum(), [ad.unit_rows_backward(coeff, u, norms)]

    assert grad_check(loss_fn, [w], eps=1e-5) < 1e-8


def test_neighbor_mean_gradient():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    agg = ad.NeighborAggregator(g)
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 3))
    coeff = rng.standard_normal((5, 3))

    def loss_fn():
        value = (ad.row_mean_neighbors(w, agg) * coeff).sum()
        return value, [ad.row_mean_neighbors_backward(coeff, agg)]

    assert grad_check(loss_fn, [w], eps=1e-5) < 1e-10


# np.add.at scatter-adds: the reference the sparse kernels must match bit for
# bit (entries added one by one, in edge order, starting from zero)

def _edge_lists(g):
    """Both directions of every edge, ordered by (row, col)."""
    pairs = sorted(g.edges + tuple((v, u) for u, v in g.edges))
    row = np.array([u for u, _ in pairs], dtype=np.int64)
    col = np.array([v for _, v in pairs], dtype=np.int64)
    return row, col


def _inv_degree(g):
    deg = np.bincount(_edge_lists(g)[0], minlength=g.n).astype(np.float64)
    return np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)


def _scatter_mean(g, x):
    row, col = _edge_lists(g)
    sums = np.zeros_like(x)
    np.add.at(sums, row, x[col])
    return sums * _inv_degree(g)[:, None]


def _scatter_mean_vjp(g, grad_out):
    row, col = _edge_lists(g)
    gw = grad_out * _inv_degree(g)[:, None]
    back = np.zeros_like(gw)
    np.add.at(back, col, gw[row])
    return back


def _scatter_rows(n, idx, grad_out):
    out = np.zeros((n, grad_out.shape[1]))
    np.add.at(out, idx, grad_out)
    return out


KERNEL_GRAPHS = {
    "dense": Graph.from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40)
                                   if (u * 7 + v * 3) % 5 < 3]),
    "isolated": Graph.from_edges(6, [(0, 3), (3, 5), (0, 5), (1, 3)]),  # 2, 4 isolated
    "edgeless": Graph.from_edges(4, []),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
@pytest.mark.parametrize("width", [1, 7])
def test_row_mean_neighbors_matches_scatter_add_bit_for_bit(name, width):
    g = KERNEL_GRAPHS[name]
    agg = ad.NeighborAggregator(g)
    # sorted, duplicate-free rows fix the summation order of every mean
    assert agg.adj.has_canonical_format
    rng = np.random.default_rng(11)
    w = rng.standard_normal((g.n, width)) * 1e3
    assert np.array_equal(ad.row_mean_neighbors(w, agg), _scatter_mean(g, w))
    # a column slice of a wider array, as the backward hands over the
    # neighbour-mean half of dL/d[H1 | mean H1]
    grad_out = rng.standard_normal((g.n, 2 * width))[:, width:]
    assert np.array_equal(ad.row_mean_neighbors_backward(grad_out, agg),
                          _scatter_mean_vjp(g, grad_out))


@pytest.mark.parametrize("idx", [[3, 0, 5], list(range(6)), [4, 1], [2, 5, 0, 3]])
def test_gather_rows_backward_matches_scatter_add_bit_for_bit(idx):
    """The contrast gathers its participants' rows of C in label order; the
    reverse of that gather must put each row's gradient back as a
    scatter-add would."""
    rng = np.random.default_rng(12)
    c = rng.standard_normal((6, 5)) * 1e3
    y = np.array([1, 0, 0, 1, 0, 1])
    mask = np.zeros(6, bool)
    mask[idx] = True
    _, got = losses.sc_loss(c, y, mask, 1.0)
    rows = np.flatnonzero(mask)[np.argsort(y[mask], kind="stable")]
    u, norms = ad.unit_rows(c[rows])
    _, grad_u = losses._sc_value_and_grad(u, y[rows], 1.0)
    back = ad.unit_rows_backward(grad_u, u, norms)
    assert np.array_equal(got, _scatter_rows(6, rows, back))


def test_linear_loss_checks_exactly():
    w = np.arange(6, dtype=float).reshape(2, 3)
    assert grad_check(lambda: (2.5 * w.sum(), [np.full((2, 3), 2.5)]), [w],
                      eps=1e-5) <= 1e-10


def _relu_on_kink():
    """A model whose first hidden unit sits exactly on the ReLU kink: zero
    features make layer one's pre-activation the bias b1 = (0, 1, -1)."""
    g = Graph.from_edges(2, [(0, 1)])
    agg = ad.NeighborAggregator(g)
    params = init_params(1, 3, 1, seed=0)
    params.b1[...] = [0.0, 1.0, -1.0]
    params.w2[...] = 1.0
    x = np.zeros((2, 1))

    def loss_fn():
        latent = encode(params, agg, x)
        grads = ad.grad(params, latent, np.ones_like(latent.h), np.zeros((2, 1)))
        return latent.h.sum(), grads[:4], latent

    return params, loss_fn


def test_grad_check_skips_relu_kink():
    # b1[0] sits exactly on the kink; central differences there read half
    # the active slope against a subgradient of 0, so it must be skipped
    params, loss_fn = _relu_on_kink()
    assert grad_check(loss_fn, params.arrays()[:4], eps=1e-5) < 1e-9
    # without the skip that coordinate would read 4 against 0, a relative
    # error of 1
    _, grads, _ = loss_fn()
    params.b1[0] = 1e-5
    plus = loss_fn()[0]
    params.b1[0] = -1e-5
    minus = loss_fn()[0]
    params.b1[0] = 0.0
    assert grads[1][0] == 0.0 and (plus - minus) / 2e-5 == pytest.approx(4.0)


def test_grad_check_ignores_forward_passes_in_other_threads():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((6, 4))
    pairs = np.array([[0, 1], [2, 3], [4, 5], [1, 4]])

    def loss_fn():
        time.sleep(0.001)  # hand the interpreter to the other thread mid-probe
        value, grad = losses.suf_loss(h, pairs[:2], pairs[2:])
        return value, [grad]

    expected = grad_check(loss_fn, [h])
    assert expected > 0.0
    stop = threading.Event()

    def forward_passes():
        noise = np.random.default_rng(10)
        while not stop.is_set():
            losses.suf_loss(noise.standard_normal((6, 4)) * 40.0, pairs[:2], pairs[2:])
            time.sleep(0)

    other = threading.Thread(target=forward_passes)
    other.start()
    try:
        got = grad_check(loss_fn, [h])
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # kink patterns recorded by the other thread must not make the check
    # skip coordinates
    assert got == expected


def test_grad_check_eps_validation():
    w = np.ones((2, 2))
    with pytest.raises(ValueError):
        grad_check(lambda: (w.sum(), [np.ones((2, 2))]), [w], eps=1e-2)


def test_determinism_bit_identical():
    agg, x, params = _model(seed=8)
    rng = np.random.default_rng(8)
    y, mask = rng.integers(0, 2, agg.n), np.ones(agg.n, bool)

    def run():
        latent = encode(params, agg, x)
        probs = ad.logistic(latent.c @ params.w + params.b)
        parts = losses.LossParts(pred=losses.pred_loss(probs, y, mask))
        value, g_h, g_logit = losses.total_loss(parts, losses.LossWeights(), params.w)
        return value, ad.grad(params, latent, g_h, g_logit)

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2, strict=True))
