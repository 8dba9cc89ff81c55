"""The five objectives against hand arithmetic and brute-force oracles."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from fairgraph import autodiff as ad
from fairgraph.autodiff import NeighborAggregator
from fairgraph.errors import CapacityError, ConfigError, NumericError, UndefinedMetricError
from fairgraph.graph import Graph, decode_pairs
from fairgraph.losses import (
    _BLOCK,
    CounterfactualIndex,
    LossParts,
    LossWeights,
    env_loss,
    inv_loss,
    pred_loss,
    sample_negative_edges,
    sc_loss,
    select_counterfactuals,
    suf_loss,
    total_loss,
)
from fairgraph.model import encode, init_params, predict
from oracles import grad_check, sc_loss_dense, tvmf


def tensor(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# counterfactual selection

def exhaustive_counterfactuals(h, pseudo, sensitive, k):
    """Independent oracle: per-node full scan sorted by (distance^2, id)."""
    n = len(h)
    e_ids, c_ids = [], []
    for i in range(n):
        e_pool, c_pool = [], []
        for j in range(n):
            if j == i:
                continue
            d2 = float(np.sum((h[i] - h[j]) ** 2))
            if pseudo[j] == pseudo[i] and sensitive[j] != sensitive[i]:
                e_pool.append((d2, j))
            if pseudo[j] != pseudo[i] and sensitive[j] == sensitive[i]:
                c_pool.append((d2, j))
        e_ids.append([j for _, j in sorted(e_pool)[:k]])
        c_ids.append([j for _, j in sorted(c_pool)[:k]])
    return e_ids, c_ids


def test_select_counterfactuals_hand_case():
    h = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    cf = select_counterfactuals(h, [1, 1, 1], [0, 1, 1], 1)
    assert cf.e_ids[0].tolist() == [1]
    # no label differences anywhere, so every c-type list is empty
    assert cf.empty_c == 3


def test_all_same_sensitive_gives_empty_e_lists():
    h = np.random.default_rng(0).standard_normal((6, 3))
    cf = select_counterfactuals(h, [0, 1, 0, 1, 0, 1], [1] * 6, 2)
    assert all(len(ids) == 0 for ids in cf.e_ids)
    assert cf.empty_e == 6


def test_k_larger_than_pool_returns_whole_pool():
    h = np.random.default_rng(1).standard_normal((5, 2))
    pseudo = [1, 1, 1, 0, 0]
    sens = [0, 1, 1, 0, 0]
    cf = select_counterfactuals(h, pseudo, sens, 10)
    assert cf.e_ids[0].tolist() == sorted([1, 2],
                                          key=lambda j: np.sum((h[0] - h[j]) ** 2))
    assert len(cf.e_ids[0]) == 2


def tied_rows(rng, n, d):
    """n rows drawn, with repeats, from n // 3 distinct ones, so every
    distance to a repeated row is an exact tie."""
    return rng.standard_normal((n // 3, d))[rng.integers(0, n // 3, n)]


def assert_selection_exhaustive(h, pseudo, sens, k):
    cf = select_counterfactuals(h, pseudo, sens, k)
    e_ids, c_ids = exhaustive_counterfactuals(h, pseudo, sens, k)
    for i in range(len(h)):
        assert cf.e_ids[i].tolist() == e_ids[i]
        assert cf.c_ids[i].tolist() == c_ids[i]
    assert cf.empty_e == sum(not ids for ids in e_ids)
    assert cf.empty_c == sum(not ids for ids in c_ids)
    return cf


def cells_with_big_first(rng, sizes, d):
    """Tied rows for shuffled cells of the given sizes; the first cell has
    more anchors than one block, and its anchors on both sides of its first
    block boundary share one row, so their distance rows tie exactly."""
    n = sum(sizes)
    cell = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    h = tied_rows(rng, n, d)
    first = np.flatnonzero(cell == 0)
    assert len(first) > _BLOCK and len(first) % _BLOCK
    h[first[_BLOCK - 2:_BLOCK + 2]] = h[first[_BLOCK - 2]]
    return h, cell


def test_selection_matches_exhaustive_scan():
    rng = np.random.default_rng(2)
    # 4 * _BLOCK + 88 rows: each of the four (label, group) cells holds about
    # _BLOCK + 22 anchors, and the largest crosses its block boundary; k=20
    # at n=30 exceeds the candidate pool of most nodes
    big = 4 * _BLOCK + 88
    for n, k, ties in ((10, 1, False), (25, 3, False), (50, 5, False),
                       (30, 20, False), (big, 5, True)):
        h = tied_rows(rng, n, 4) if ties else rng.standard_normal((n, 4))
        pseudo = rng.integers(0, 2, n)
        sens = rng.integers(0, 2, n)
        if n == big:
            assert np.bincount(2 * pseudo + sens).max() > _BLOCK
        assert_selection_exhaustive(h, pseudo, sens, k)
    # three labels and three groups, so "other group" spans several cells.
    # Cell (0, 0) has more anchors than one block; label 2 lives only in
    # group 0, so its e-type cell has no candidates; group 2 holds only label
    # 0, so its c-type cell has none; and (1, 0) has an e-type pool of 3 < k
    pairs = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    sizes = [3 * _BLOCK // 2 + 1, 40, 30, 30, 3, 4]
    h, cell = cells_with_big_first(rng, sizes, 4)
    pseudo = np.array([pairs[c][0] for c in cell])
    sens = np.array([pairs[c][1] for c in cell])
    cf = assert_selection_exhaustive(h, pseudo, sens, 5)
    assert (cf.empty_e, cf.empty_c) == (4, 30)
    assert all(len(cf.e_ids[i]) == 3 for i in np.flatnonzero(cell == 3))


def test_selection_constraints_always_hold():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((30, 3))
    pseudo = rng.integers(0, 2, 30)
    sens = rng.integers(0, 2, 30)
    cf = select_counterfactuals(h, pseudo, sens, 4)
    for i in range(30):
        for j in cf.e_ids[i]:
            assert pseudo[j] == pseudo[i] and sens[j] != sens[i] and j != i
        for j in cf.c_ids[i]:
            assert pseudo[j] != pseudo[i] and sens[j] == sens[i] and j != i


# ---------------------------------------------------------------------------
# prediction loss

def test_pred_loss_confident_and_uniform():
    probs = tensor([[0.999999], [0.000001]])
    assert float(pred_loss(probs, [1, 0], [True, True]).value) < 1e-5
    half = tensor([[0.5]] * 4)
    assert float(pred_loss(half, [0, 1, 1, 0], [True] * 4).value) == \
        pytest.approx(math.log(2), abs=1e-12)


def test_pred_loss_hand_sum():
    p = [0.8, 0.3, 0.6]
    y = [1, 0, 1]
    expected = -(math.log(0.8) + math.log(0.7) + math.log(0.6)) / 3
    got = pred_loss(tensor([[v] for v in p]), y, [True] * 3)
    assert float(got.value) == pytest.approx(expected, abs=1e-12)


def test_pred_loss_mask_and_errors():
    probs = tensor([[0.9], [0.1]])
    only_first = pred_loss(probs, [1, 1], [True, False])
    assert float(only_first.value) == pytest.approx(-math.log(0.9), abs=1e-12)
    with pytest.raises(UndefinedMetricError):
        pred_loss(probs, [1, 1], [False, False])


# ---------------------------------------------------------------------------
# invariance loss

def cf_pair():
    empty = np.zeros(0, dtype=np.int64)
    return CounterfactualIndex(
        e_ids=(np.array([1]), empty), c_ids=(np.array([1]), empty), k=1)


def test_inv_loss_cosine_hand_sum():
    # content pair (0, 1) at 90 degrees: 1 - cos = 1; environment pair at 180
    # degrees: 1 - cos = 2; |cos(c_i, e_i)| is 1 for node 0 and 0 for node 1,
    # so gamma=2 adds 2 * 0.5. Row norms differ and must divide out.
    c = tensor([[1.0, 0.0], [0.0, 2.0]])
    e = tensor([[3.0, 0.0], [-0.5, 0.0]])
    assert float(inv_loss(c, e, cf_pair(), gamma=0.0).value) == 3.0
    assert float(inv_loss(c, e, cf_pair(), gamma=2.0).value) == 4.0


def test_inv_loss_vanishes_when_aligned_and_orthogonal():
    c = tensor([[1.0, 0.0], [1.0, 0.0]])
    e = tensor([[0.0, 1.0], [0.0, 1.0]])
    assert float(inv_loss(c, e, cf_pair(), gamma=2.0).value) == pytest.approx(0.0, abs=1e-15)


def test_inv_loss_logs_zero_rows_at_debug(caplog):
    # one of the three e-type pairs has a zero content row; c-type is empty
    c = tensor([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    e = tensor([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    empty = np.zeros(0, dtype=np.int64)
    cf = CounterfactualIndex(e_ids=(np.array([1]), np.array([2]), np.array([1])),
                             c_ids=(empty, empty, empty), k=1)
    quiet = float(inv_loss(c, e, cf, gamma=1.0).value)
    with caplog.at_level(logging.DEBUG, logger="fairgraph.losses"):
        loud = float(inv_loss(c, e, cf, gamma=1.0).value)
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records if r.name == "fairgraph.losses"]
    assert messages == ["cosine distance: 1 zero-vector rows treated as cos=0"]


def test_inv_loss_gamma_linearity():
    rng = np.random.default_rng(4)
    c = tensor(rng.standard_normal((6, 3)))
    e = tensor(rng.standard_normal((6, 3)))
    cf = select_counterfactuals(np.hstack([c.value, e.value]),
                                rng.integers(0, 2, 6), rng.integers(0, 2, 6), 2)
    base = float(inv_loss(c, e, cf, gamma=1.0).value)
    doubled = float(inv_loss(c, e, cf, gamma=2.0).value)
    mean_abs_cos = float(np.mean(np.abs(
        [np.dot(c.value[i], e.value[i])
         / (np.linalg.norm(c.value[i]) * np.linalg.norm(e.value[i]))
         for i in range(6)])))
    assert doubled - base == pytest.approx(mean_abs_cos, abs=1e-12)


def test_inv_loss_nonnegative_cosine_metric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = tensor(rng.standard_normal((8, 3)))
        e = tensor(rng.standard_normal((8, 3)))
        cf = select_counterfactuals(np.hstack([c.value, e.value]),
                                    rng.integers(0, 2, 8), rng.integers(0, 2, 8), 2)
        assert float(inv_loss(c, e, cf, gamma=0.7).value) >= 0.0


# ---------------------------------------------------------------------------
# negative sampling and structure loss

def test_negative_sampling_properties():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    neg = sample_negative_edges(g, 5, seed=3)
    assert np.array_equal(neg, sample_negative_edges(g, 5, seed=3))
    assert len(set(map(tuple, neg.tolist()))) == 5
    for u, v in neg.tolist():
        assert u < v and (u, v) not in g.edges


def test_negative_sampling_capacity():
    complete = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(CapacityError):
        sample_negative_edges(complete, 1, seed=0)
    assert sample_negative_edges(complete, 0, seed=0).shape == (0, 2)
    # exact capacity draw enumerates every non-edge
    g = Graph.from_edges(4, [(0, 1)])
    neg = sample_negative_edges(g, 5, seed=1)
    assert len(neg) == 5


def _negative_edges_reference(g, count, seed):
    """Pure-Python sampler: one draw over the enumerated non-edges up to
    200k pairs or on dense graphs, rejection sampling otherwise."""
    rng = np.random.default_rng(seed)
    n, existing = g.n, set(g.edges)
    capacity = n * (n - 1) // 2 - g.m
    if n * (n - 1) // 2 <= 200_000 or count * 2 > capacity:
        pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in existing]
        return sorted(pool[int(i)] for i in rng.choice(len(pool), size=count, replace=False))
    picked = set()
    while len(picked) < count:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        pair = (min(u, v), max(u, v))
        if u != v and pair not in existing:
            picked.add(pair)
    return sorted(picked)


@pytest.mark.parametrize("n,m,count", [(30, 120, 200), (720, 700, 130_000), (1000, 900, 700),
                                       (700, 1000, 120_000)])
def test_negative_sampling_matches_python_reference(n, m, count):
    # the enumerated pool on a small graph and on a dense draw over more than
    # 200k pairs, then the rejection sampler, last over several batches of
    # draws with many duplicates
    rng = np.random.default_rng(n)
    codes = rng.choice(n * (n - 1) // 2, size=m, replace=False)
    g = Graph.from_edges(n, decode_pairs(n, np.sort(codes)))
    neg = sample_negative_edges(g, count, seed=5)
    assert neg.dtype == np.int64 and neg.shape == (count, 2)
    assert list(map(tuple, neg.tolist())) == _negative_edges_reference(g, count, 5)


def test_suf_loss_zero_embeddings():
    h = tensor(np.zeros((4, 3)))
    loss = suf_loss(h, [(0, 1), (1, 2)], [(0, 2), (0, 3)])
    assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)


def test_suf_loss_hand_sum():
    h = tensor([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    pos = [(0, 1)]   # logit 2
    neg = [(0, 2)]   # logit 0
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    expected = -(math.log(sig(2.0)) + math.log(1.0 - sig(0.0))) / 2.0
    assert float(suf_loss(h, pos, neg).value) == pytest.approx(expected, abs=1e-12)


def test_suf_loss_separates_in_the_limit():
    h = tensor([[30.0, 0.0], [30.0, 0.0], [-30.0, 30.0], [0.0, -30.0]])
    loss = suf_loss(h, [(0, 1)], [(2, 3)])
    assert float(loss.value) < 1e-8


def test_suf_loss_empty_errors():
    h = tensor(np.zeros((3, 2)))
    with pytest.raises(UndefinedMetricError):
        suf_loss(h, [], [(0, 1)])


# ---------------------------------------------------------------------------
# t-vMF similarity and supervised contrast

def test_tvmf_endpoint_values():
    assert tvmf([1.0, 0.0], [2.0, 0.0], kappa=3.0) == pytest.approx(1.0, abs=1e-15)
    assert tvmf([1.0, 0.0], [-1.0, 0.0], kappa=3.0) == pytest.approx(-1.0, abs=1e-15)
    assert tvmf([0.0, 0.0], [1.0, 0.0], kappa=1.0) == pytest.approx(-0.5)  # cos -> 0


def test_tvmf_kappa_zero_reduces_to_cosine():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert tvmf(a, b, kappa=0.0) == pytest.approx(cos, abs=1e-12)


def test_tvmf_range_and_monotonicity():
    grid = np.linspace(-1.0, 1.0, 2001)
    for kappa in (0.0, 0.5, 1.0, 4.0):
        phi = (1.0 + grid) / (1.0 + kappa * (1.0 - grid)) - 1.0
        assert phi.min() >= -1.0 - 1e-12 and phi.max() <= 1.0 + 1e-12
        assert np.all(np.diff(phi) > 0)


def test_sc_loss_two_identical_nodes_is_zero():
    c = tensor([[1.0, 2.0], [1.0, 2.0]])
    assert float(sc_loss(c, [1, 1], [True, True], kappa=1.0).value) == \
        pytest.approx(0.0, abs=1e-15)


def test_sc_loss_all_distinct_labels_errors():
    c = tensor(np.random.default_rng(7).standard_normal((2, 3)))
    with pytest.raises(UndefinedMetricError):
        sc_loss(c, [0, 1], [True, True], kappa=1.0)


def sc_loss_oracle(c, labels, kappa):
    """Scalar hand evaluation of the contrastive sum."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        inner = 0.0
        for p in positives:
            num = math.exp(tvmf(c[i], c[p], kappa))
            den = sum(math.exp(tvmf(c[i], c[a], kappa)) for a in range(n) if a != i)
            inner += math.log(num / den)
        total -= inner / len(positives)
    return total


def test_sc_loss_matches_hand_computation():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((4, 3))
    labels = [0, 0, 1, 1]
    got = float(sc_loss(tensor(c), labels, [True] * 4, kappa=1.0).value)
    assert got == pytest.approx(sc_loss_oracle(c, labels, 1.0), abs=1e-12)


def test_sc_loss_nonnegative_and_scale_invariant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.standard_normal((7, 4))
        labels = rng.integers(0, 2, 7)
        if len(set(labels.tolist())) == 1 or min(np.bincount(labels)) == 0:
            continue
        base = float(sc_loss(tensor(c), labels, [True] * 7, kappa=1.0).value)
        assert base >= 0.0
        scaled = float(sc_loss(tensor(3.7 * c), labels, [True] * 7, kappa=1.0).value)
        assert scaled == pytest.approx(base, abs=1e-12)


def test_sc_loss_skips_unlabeled_nodes():
    rng = np.random.default_rng(10)
    c = rng.standard_normal((5, 3))
    mask = [True, True, True, False, False]
    got = float(sc_loss(tensor(c), [0, 0, 1, 1, 1], mask, kappa=1.0).value)
    want = sc_loss_oracle(c[:3], [0, 0, 1], 1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_sc_loss_excludes_self_similarity():
    # every row is a scaled copy of another, so each anchor has a cosine of 1
    # with its own row and with one other row; only the other one counts
    rng = np.random.default_rng(11)
    base = rng.standard_normal((3, 4))
    c = np.vstack([base, 2.5 * base])
    labels = [0, 1, 1, 0, 1, 0]
    got = float(sc_loss(tensor(c), labels, [True] * 6, kappa=1.0).value)
    assert got == pytest.approx(sc_loss_oracle(c, labels, 1.0), abs=1e-12)


def test_sc_loss_zero_row_behaves_as_cos_zero():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((5, 3))
    c[2] = 0.0
    labels = [0, 0, 1, 1, 0]
    x = ad.Tensor(c, requires_grad=True)
    loss = sc_loss(x, labels, [True] * 5, kappa=2.0)
    assert float(loss.value) == pytest.approx(sc_loss_oracle(c, labels, 2.0), abs=1e-12)
    (g,) = ad.grad(loss, [x])
    assert np.array_equal(g[2], np.zeros(3))


@pytest.mark.parametrize("n_l,kappa,classes", [
    (2, 1.0, 1), (5, 1.0, 2), (40, 0.0, 3),
    pytest.param(_BLOCK + 1, 2.5, 2, id="block+1-2.5-2"),
    pytest.param(2 * _BLOCK + 76, 1.0, 3, id="2block+76-1.0-3")])
def test_sc_loss_matches_dense_reference(n_l, kappa, classes):
    """The blockwise kernel against full n_l x n_l matrices: one case
    straddles the _BLOCK-row block by one row, one crosses two boundaries."""
    rng = np.random.default_rng(n_l)
    n = n_l + n_l // 3
    c = rng.standard_normal((n, 6))
    mask = np.zeros(n, bool)
    mask[rng.choice(n, n_l, replace=False)] = True
    idx = np.flatnonzero(mask)
    y = rng.integers(0, classes, n)
    y[idx[:2]] = 0  # some anchor has a positive
    if n_l > 3:
        c[idx[2]] = 0.0          # a zero content row
        y[idx[3]] = -1           # a class with a single member: no positives
    if n_l > _BLOCK:
        # identical rows on both sides of the first block boundary
        c[idx[_BLOCK - 12:_BLOCK + 18]] = c[idx[_BLOCK - 12]]
    x = ad.Tensor(c, requires_grad=True)
    loss = sc_loss(x, y, mask, kappa)
    (got,) = ad.grad(loss, [x])
    want_value, want = sc_loss_dense(c, y, mask, kappa)
    assert abs(float(loss.value) - want_value) <= 1e-12 * max(1.0, abs(want_value))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1e-300, np.max(np.abs(want)))
    assert not np.any(got[~mask])


def test_sc_loss_memory_is_blockwise():
    """One forward and reverse pass at n_l=4000 stays below the bytes of two
    n_l x n_l float64 matrices; a dense composition needs several."""
    n_l = 4000
    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.standard_normal((n_l, 16)), requires_grad=True)
    y = rng.integers(0, 2, n_l)
    tracemalloc.start()
    try:
        ad.grad(sc_loss(x, y, np.ones(n_l, bool), 1.0), [x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_l * n_l * 8, f"peak {peak / 2**20:.0f} MiB"


# ---------------------------------------------------------------------------
# environmental loss

def test_env_loss_symmetric_pair():
    e = tensor([[0.0, 0.0], [3.0, 4.0]])
    assert float(env_loss(e, [0, 1], 1).value) == pytest.approx(-5.0, abs=1e-12)


def test_env_loss_identical_rows_zero():
    e = tensor(np.ones((6, 3)))
    assert float(env_loss(e, [0, 0, 0, 1, 1, 1], 2).value) == 0.0


def env_loss_oracle(e, s, k_prime):
    n = len(s)
    total = 0.0
    for i in range(n):
        pool = [(np.sum((e[i] - e[j]) ** 2), j) for j in range(n) if s[j] != s[i]]
        nearest = [j for _, j in sorted(pool)[:k_prime]]
        k_i = len(nearest)
        total += sum(np.linalg.norm(e[i] - e[j]) for j in nearest) / k_i
    return -total / n


def test_env_loss_matches_brute_force():
    rng = np.random.default_rng(11)
    e = rng.standard_normal((5, 3))
    s = np.array([0, 1, 0, 1, 1])
    got = float(env_loss(tensor(e), s, 2).value)
    assert got == pytest.approx(env_loss_oracle(e, s, 2), abs=1e-12)
    # 4 * _BLOCK + 88 rows with exact ties: each group's anchors cross its
    # block boundaries
    n = 4 * _BLOCK + 88
    e = tied_rows(rng, n, 3)
    s = rng.integers(0, 2, n)
    got = float(env_loss(tensor(e), s, 4).value)
    assert got == pytest.approx(env_loss_oracle(e, s, 4), abs=1e-12)
    # a group of three: K' = 5 exceeds its pool for every node of the other
    minority = np.zeros(n, dtype=int)
    minority[[7, n // 2, n - 10]] = 1
    got = float(env_loss(tensor(e), minority, 5).value)
    assert got == pytest.approx(env_loss_oracle(e, minority, 5), abs=1e-12)
    # three groups, so the other group spans two cells; group 0 has more
    # anchors than one block, with ties across its block boundary; in the
    # second case its pool of 3 is below K' = 5
    for sizes, k_prime in (([3 * _BLOCK // 2 + 1, 60, 47], 4),
                           ([3 * _BLOCK // 2 + 1, 2, 1], 5)):
        e, s = cells_with_big_first(rng, sizes, 3)
        got = float(env_loss(tensor(e), s, k_prime).value)
        assert got == pytest.approx(env_loss_oracle(e, s, k_prime), abs=1e-12)


def test_topk_memory_is_cellwise():
    """One selection and one env_loss at n=4000, d=32 stay below the bytes
    of one 512 x n float64 array; the mask-based kernel held several. K and
    K' are 3: at K' = 5 the three (n*K', d) arrays env_loss puts on the tape
    come to 15 MiB by themselves."""
    n, d = 4000, 32
    rng = np.random.default_rng(14)
    h = rng.standard_normal((n, d))
    s = rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        select_counterfactuals(h, rng.integers(0, 2, n), s, 3)
        env_loss(tensor(h), s, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * n * 8, f"peak {peak / 2**20:.1f} MiB"


def test_env_loss_nonpositive_and_group_error():
    rng = np.random.default_rng(12)
    e = rng.standard_normal((8, 3))
    s = rng.integers(0, 2, 8)
    while len(set(s.tolist())) < 2:
        s = rng.integers(0, 2, 8)
    assert float(env_loss(tensor(e), s, 3).value) <= 0.0
    with pytest.raises(UndefinedMetricError):
        env_loss(tensor(e), np.zeros(8, dtype=int), 3)


# ---------------------------------------------------------------------------
# composite

def test_total_loss_reductions():
    parts = LossParts(pred=tensor(1.0), inv=tensor(2.0), suf=tensor(3.0),
                      sc=tensor(4.0), env=tensor(5.0))
    w0 = LossWeights(alpha=0, beta=0, gamma=1, omega=0, eta=0)
    assert float(total_loss(parts, w0).value) == 1.0
    w1 = LossWeights(alpha=1, beta=1, gamma=1, omega=1, eta=1)
    assert float(total_loss(parts, w1).value) == 15.0
    caf = LossParts(pred=tensor(1.0), inv=tensor(2.0), suf=tensor(3.0))
    wc = LossWeights(alpha=0.5, beta=2.0, gamma=1, omega=0.3, eta=0.9)
    assert float(total_loss(caf, wc).value) == 1.0 + 0.5 * 2.0 + 2.0 * 3.0


def test_total_loss_rejects_non_finite():
    parts = LossParts(pred=tensor(float("nan")))
    with pytest.raises(NumericError):
        total_loss(parts, LossWeights())


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-0.1)
    # from_dict reads outside input, so every failure is a ConfigError
    for doc in ({"alpha": 1.0, "bogus": 2}, {"alpha": -1}, {"K": 0},
                {"kappa": "x"}, [1, 2]):
        with pytest.raises(ConfigError):
            LossWeights.from_dict(doc)
    w = LossWeights.from_dict({"alpha": 2.0, "K": 3, "K_prime": 7})
    assert (w.alpha, w.k, w.k_prime) == (2.0, 3, 7)
    assert LossWeights.from_dict(w.to_dict()) == w


# ---------------------------------------------------------------------------
# gradient suite

def loss_builders(seed):
    rng = np.random.default_rng(seed)
    n, d = 12, 5
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, 5), (2, 9)])
    x = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    s = rng.integers(0, 2, n)
    while len(set(y.tolist())) < 2 or len(set(s.tolist())) < 2:
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
    enc, pred = init_params(d, hidden=6, d_c=4, seed=seed)
    agg = NeighborAggregator(g)
    mask = np.ones(n, bool)
    w = LossWeights(alpha=0.7, beta=0.9, gamma=0.5, omega=0.4, eta=0.2,
                    k=2, k_prime=2, kappa=1.0)
    cf = select_counterfactuals(encode(enc, agg, x).h.value, y, s, w.k)
    neg = sample_negative_edges(g, g.m, seed=seed + 1)

    def build(which):
        latent = encode(enc, agg, x)
        if which == "pred":
            return pred_loss(predict(pred, latent.c), y, mask)
        if which == "inv":
            return inv_loss(latent.c, latent.e, cf, w.gamma)
        if which == "suf":
            return suf_loss(latent.h, g.edges, neg)
        if which == "sc":
            return sc_loss(latent.c, y, mask, w.kappa)
        if which == "env":
            return env_loss(latent.e, s, w.k_prime)
        parts = LossParts(pred=pred_loss(predict(pred, latent.c), y, mask),
                          inv=inv_loss(latent.c, latent.e, cf, w.gamma),
                          suf=suf_loss(latent.h, g.edges, neg),
                          sc=sc_loss(latent.c, y, mask, w.kappa),
                          env=env_loss(latent.e, s, w.k_prime))
        return total_loss(parts, w)

    return enc, pred, build


@pytest.mark.parametrize("which", ["pred", "inv", "suf", "sc", "env", "total"])
def test_every_loss_passes_grad_check(which):
    for seed in range(5):
        enc, pred, build = loss_builders(seed)
        params = enc.tensors()
        if which in ("pred", "total"):
            params = params + pred.tensors()
        err = grad_check(lambda: build(which), params, eps=1e-5, seed=seed)
        assert err < 1e-4, f"{which} seed {seed}: {err}"
