"""Tape primitives, closed-form gradients, and the finite-difference checker."""

import threading
import time

import numpy as np
import pytest

from fairgraph import autodiff as ad
from fairgraph.errors import NumericError, ShapeError, TapeError
from fairgraph.graph import Graph
from oracles import grad_check


def test_relu_on_all_negative_is_zero():
    x = ad.Tensor(-np.ones((3, 2)))
    assert np.array_equal(ad.relu(x).value, np.zeros((3, 2)))


def test_row_mean_neighbors_isolated_node_zero_row():
    g = Graph.from_edges(3, [(0, 1)])  # node 2 isolated
    x = ad.Tensor(np.arange(6, dtype=float).reshape(3, 2))
    out = ad.row_mean_neighbors(x, ad.NeighborAggregator(g))
    assert np.array_equal(out.value[2], np.zeros(2))
    assert np.array_equal(out.value[0], x.value[1])


def test_sum_of_params_grad_is_ones():
    w = ad.Tensor(np.random.default_rng(1).standard_normal((4, 3)),
                  requires_grad=True)
    (g,) = ad.grad(ad.tsum(w), [w])
    assert np.array_equal(g, np.ones((4, 3)))


def test_quadratic_closed_form():
    rng = np.random.default_rng(2)
    w = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x = rng.standard_normal((4, 1))
    y = ad.matmul(w, ad.Tensor(x))
    (g,) = ad.grad(ad.tsum(ad.mul(y, y)), [w])
    assert np.allclose(g, 2.0 * (w.value @ x) @ x.T, atol=1e-12)


def test_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.hstack(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3))))


def test_log_domain_error():
    with pytest.raises(NumericError):
        ad.tlog(ad.Tensor(np.array([1.0, 0.0])))


def test_tape_errors():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    unused = ad.Tensor(np.ones(2), requires_grad=True)
    loss = ad.tsum(w)
    with pytest.raises(TapeError):
        ad.grad(loss, [unused])
    with pytest.raises(TapeError):
        ad.grad(loss, [ad.Tensor(np.ones(2))])  # constant, not a parameter
    with pytest.raises(TapeError):
        ad.backward(w)  # not a scalar


def test_grad_is_fresh_between_losses():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    v = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    ad.grad(ad.tsum(ad.mul(w, v)), [w, v])
    (g,) = ad.grad(ad.tsum(ad.mul(w, 3.0)), [w])
    assert np.array_equal(g, 3.0 * np.ones((2, 2)))
    with pytest.raises(TapeError):
        ad.grad(ad.tsum(ad.mul(w, 3.0)), [v])


def test_broadcast_add_gradient():
    rng = np.random.default_rng(3)
    w = ad.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(4), requires_grad=True)

    def loss_fn():
        return ad.tsum(ad.sigmoid(w + b))

    assert grad_check(loss_fn, [w, b], eps=1e-5) < 1e-8


def test_gather_scatter_gradient():
    rng = np.random.default_rng(4)
    w = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    idx = np.array([0, 2, 2, 5])

    def loss_fn():
        rows = ad.gather_rows(w, idx)
        return ad.tsum(ad.mul(rows, rows))

    assert grad_check(loss_fn, [w], eps=1e-5) < 1e-8


def test_row_normalize_gradient():
    rng = np.random.default_rng(6)
    w = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)

    def loss_fn():
        return ad.tsum(ad.row_l2_normalize(w))

    assert grad_check(loss_fn, [w], eps=1e-5) < 1e-8


def test_neighbor_mean_gradient():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    agg = ad.NeighborAggregator(g)
    rng = np.random.default_rng(7)
    w = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    coeff = rng.standard_normal((5, 3))

    def loss_fn():
        return ad.tsum(ad.mul(ad.row_mean_neighbors(w, agg), ad.Tensor(coeff)))

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


def _vjp(out):
    ((_, vjp),) = out._parents
    return vjp


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
    rng = np.random.default_rng(11)
    w = ad.Tensor(rng.standard_normal((g.n, width)) * 1e3, requires_grad=True)
    out = ad.row_mean_neighbors(w, ad.NeighborAggregator(g))
    assert np.array_equal(out.value, _scatter_mean(g, w.value))
    # a column slice of a wider array, as hstack's reverse pass hands over
    grad_out = rng.standard_normal((g.n, 2 * width))[:, width:]
    assert np.array_equal(_vjp(out)(grad_out), _scatter_mean_vjp(g, grad_out))


@pytest.mark.parametrize("idx", [[3, 0, 3, 3, 5, 0], [], [4], list(range(6)) * 9])
def test_gather_rows_backward_matches_scatter_add_bit_for_bit(idx):
    rng = np.random.default_rng(12)
    w = ad.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    out = ad.gather_rows(w, idx)
    assert np.array_equal(out.value, w.value[np.asarray(idx, dtype=np.int64)])
    grad_out = rng.standard_normal((len(idx), 5)) * 1e3
    back = _vjp(out)(grad_out)
    assert back.shape == w.value.shape
    assert np.array_equal(back, _scatter_rows(6, np.asarray(idx, dtype=np.int64), grad_out))


def test_linear_loss_checks_exactly():
    w = ad.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)

    def loss_fn():
        return ad.tsum(ad.mul(w, 2.5))

    assert grad_check(loss_fn, [w], eps=1e-5) <= 1e-10


def test_grad_check_skips_relu_kink():
    # one coordinate sits exactly on the kink; central differences there
    # would report 0.5 against a subgradient of 0, so it must be skipped
    w = ad.Tensor(np.array([[0.0, 1.0, -1.0]]), requires_grad=True)

    def loss_fn():
        return ad.tsum(ad.relu(w))

    # without the skip this would come out at 0.5
    assert grad_check(loss_fn, [w], eps=1e-5) < 1e-9


def test_grad_check_ignores_forward_passes_in_other_threads():
    rng = np.random.default_rng(9)
    w = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def loss_fn():
        time.sleep(0.001)  # hand the interpreter to the other thread mid-probe
        return ad.tsum(ad.mul(w, ad.mul(w, w)))

    expected = grad_check(loss_fn, [w])
    assert expected > 0.0
    stop = threading.Event()

    def forward_passes():
        noise = np.random.default_rng(10)
        while not stop.is_set():
            ad.relu(ad.Tensor(noise.standard_normal(8)))
            time.sleep(0)

    other = threading.Thread(target=forward_passes)
    other.start()
    try:
        got = grad_check(loss_fn, [w])
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # kink patterns recorded by the other thread must not make the check
    # skip coordinates
    assert got == expected


def test_grad_check_eps_validation():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: ad.tsum(w), [w], eps=1e-2)


def test_determinism_bit_identical():
    rng = np.random.default_rng(8)
    w = ad.Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    x = ad.Tensor(rng.standard_normal((6, 6)))

    def run():
        loss = ad.tsum(ad.sigmoid(ad.matmul(w, x)))
        (g,) = ad.grad(loss, [w])
        return float(loss.value), g.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)
