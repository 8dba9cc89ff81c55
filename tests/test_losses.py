"""The five objectives against hand arithmetic and brute-force oracles."""

import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fairgraph
from fairgraph import autodiff as ad
from fairgraph.autodiff import NeighborAggregator
from fairgraph.errors import CapacityError, ConfigError, UndefinedMetricError
from fairgraph.graph import Graph, decode_pairs
from fairgraph.losses import (
    _BLOCK,
    _GROUPS,
    _PAIR_BLOCK,
    PROB_FLOOR,
    CounterfactualIndex,
    LossParts,
    LossWeights,
    _nearest,
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
from oracles import (env_loss_tape, grad_check, inv_loss_tape, nearest_scan,
                     sc_loss_dense, suf_loss_tape, tvmf)


def floats(values):
    return np.asarray(values, dtype=np.float64)


def assert_matches_tape(got_value, got_grads, want_value, want_grads):
    """A fused kernel against its tape reference, to 1e-12 relative."""
    assert abs(got_value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    for got, want in zip(got_grads, want_grads, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1e-300, np.max(np.abs(want)))


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


def test_exact_ties_go_to_the_smaller_id():
    """Rows equal to the anchor are all at distance 0, but the expansion
    sq_i + sq_j - 2 x_i.x_j puts some at 0.0 and some at 8.9e-16; selection
    must still rank them by id, as an exact scan does. One pseudo-label, so
    the e-type cells are the two groups against each other."""
    rng = np.random.default_rng(19)
    n = 1000
    h = tied_rows(rng, n, 4)
    s = rng.integers(0, 2, n)
    cf = select_counterfactuals(h, np.zeros(n, dtype=int), s, 5)
    want = nearest_scan(h, s[:, None] != s[None, :], 5)
    assert all(np.array_equal(got, ids) for got, ids in zip(cf.e_ids, want, strict=True))


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


def random_cell(rng, n, n_anchors, n_cand):
    """(anchors, candidates): disjoint increasing id arrays drawn from n rows."""
    ids = rng.permutation(n)
    return np.sort(ids[:n_anchors]), np.sort(ids[n_anchors:n_anchors + n_cand])


def assert_nearest_is_exhaustive(x, cells, k):
    """`_nearest` against the exhaustive scan: the same ids in the same
    order for every row, and each hit's |x_i - x_j|^2 exactly."""
    n = len(x)
    allowed = np.zeros((n, n), dtype=bool)
    for anchors, cand in cells:
        allowed[np.ix_(anchors, cand)] = True
    counts, ids, sq_dists = _nearest(x, cells, k)
    got = np.split(ids, np.cumsum(counts)[:-1])
    want = nearest_scan(x, allowed, k)
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    rows = np.repeat(np.arange(n), counts)
    assert np.array_equal(sq_dists, ((x[rows] - x[ids]) ** 2).sum(axis=1))


def placed_cell(rng, n_anchors, n_cand, k, place):
    """x and one random cell of it (7 rows stay outside the cell), for the
    edges of `_nearest`'s column groups. Every place starts from tied rows;
    all but "tied" scale each row by 10**U(-3, 3) and zero three rows.
    "leftover" copies the anchors into the columns past the last whole
    group, "one-group" copies anchor 0 into every column of one group; each
    copy is exact or off by 1e-6 relative."""
    n = n_anchors + n_cand + 7
    x = tied_rows(rng, n, 4)
    anchors, cand = random_cell(rng, n, n_anchors, n_cand)
    if place == "tied":
        return x, [(anchors, cand)]
    x *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    x[rng.choice(n, 3, replace=False)] = 0.0
    groups = min(max(_GROUPS, k), n_cand)
    grouped = n_cand // groups * groups
    if place == "leftover":
        cols = np.arange(grouped, n_cand)
        src = anchors[np.arange(len(cols)) % n_anchors]
    elif place == "one-group":
        cols = np.arange(rng.integers(groups), grouped, groups)
        src = np.full(len(cols), anchors[0])
    else:
        cols = src = np.zeros(0, dtype=np.int64)
    jitter = 1e-6 * rng.standard_normal((len(cols), 1)) * rng.integers(0, 2, (len(cols), 1))
    x[cand[cols]] = x[src] * (1.0 + jitter)
    return x, [(anchors, cand)]


@pytest.mark.parametrize("n_anchors,n_cand,k,place", [
    (1, 30, 5, "tied"), (_BLOCK, 40, 5, "tied"), (_BLOCK + 1, 40, 5, "tied"),
    (2 * _BLOCK + 3, 40, 5, "tied"), (_BLOCK + 1, 3, 5, "tied"), (_BLOCK + 1, 1, 5, "tied"),
    (_BLOCK + 1, 1, 1, "tied"), (5, 0, 5, "tied"),
    (9, _GROUPS - 1, 5, "scaled"), (9, _GROUPS, 5, "scaled"), (9, _GROUPS + 1, 5, "leftover"),
    (_BLOCK + 1, 2 * _GROUPS + 5, 5, "leftover"), (9, 6 * _GROUPS + 5, 5, "one-group"),
    (9, 2 * _GROUPS + 5, _GROUPS + 3, "leftover"), (9, _GROUPS + 1, _GROUPS + 3, "scaled")],
    ids=["one-anchor", "block", "block+1", "2block+3", "fewer-cands-than-k",
         "one-cand", "one-cand-k1", "no-cands", "groups-1", "groups", "groups+1-leftover",
         "2groups+5-leftover", "one-group", "k-above-groups-leftover",
         "k-above-groups-and-cands"])
def test_nearest_block_buffer_edges(n_anchors, n_cand, k, place):
    """One cell whose anchors fill no block, exactly one, or spill one row
    into a partial last block (a slice of the reused buffers), with pools
    below k, of one candidate, or empty; repeated rows make exact ties. The
    rest sit at the edges of the column groups that set the cut: one
    candidate fewer than `_GROUPS`, as many, one more, 2 `_GROUPS` + 5 and
    6 `_GROUPS` + 5, k above `_GROUPS`, and every nearest row in the
    leftover columns or in one group, over row scales from 1e-3 to 1e3
    with zero rows."""
    rng = np.random.default_rng(n_anchors * 100 + n_cand)
    assert_nearest_is_exhaustive(*placed_cell(rng, n_anchors, n_cand, k, place), k)


@given(n_anchors=st.integers(1, 6),
       n_cand=st.sampled_from([_GROUPS - 1, _GROUPS, _GROUPS + 1, 2 * _GROUPS + 5,
                               6 * _GROUPS + 5]),
       k=st.sampled_from([1, 2, 5, _GROUPS + 3]),
       place=st.sampled_from(["tied", "scaled", "leftover", "one-group"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nearest_matches_exhaustive_scan(n_anchors, n_cand, k, place, seed):
    """`_nearest` equals the exhaustive scan in ids, order and exact
    squared distances wherever the candidates sit among the column groups."""
    rng = np.random.default_rng(seed)
    assert_nearest_is_exhaustive(*placed_cell(rng, n_anchors, n_cand, k, place), k)


def test_nearest_slack_keeps_rounded_out_candidates():
    """Candidates on a thin shell around an anchor far from the origin: the
    product's rounding, about eps |x|^2, exceeds the gaps between their
    distances, so only the cut's rounding slack keeps the true nearest."""
    rng = np.random.default_rng(20)
    for dim in (1, 3, 8, 32):
        anchors = 1e3 * rng.standard_normal(dim) + 1e-3 * rng.standard_normal((20, dim))
        u = rng.standard_normal((300, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        shell = anchors[0] + u * (1.0 + 1e-12 * rng.standard_normal((300, 1)))
        x = np.vstack([anchors, shell])
        assert_nearest_is_exhaustive(x, [(np.arange(20), np.arange(20, 320))], 3)


def adversarial_rows(rng, case, n=300, dim=8):
    """n rows for one hard case of the float32 screen: tied rows scaled to
    a magnitude, tied rows perturbed 1e-9 relative (below float32's
    resolution), rows at distance 1e3 from the origin with unit spread (sq
    near 1e6, where the slack is widest), or one row repeated."""
    if case.startswith("magnitude"):
        return tied_rows(rng, n, dim) * float(case.split("-", 1)[1])
    if case == "near-duplicates":
        return tied_rows(rng, n, dim) * (1.0 + 1e-9 * rng.standard_normal((n, dim)))
    if case == "sq-near-1e6":
        return 1e3 / math.sqrt(dim) + rng.standard_normal((n, dim))
    return np.tile(rng.standard_normal(dim), (n, 1))


def plain_float32_keeps_top_k(x, anchors, cand, k):
    """Whether a float32 screen on x cast as it is, without the kernel's
    power-of-two scale, keeps every anchor's exhaustive top k: d = |x_j|^2
    - 2 x_i.x_j against the k-th smallest d plus a relative slack."""
    x32 = x.astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (x32 * x32).sum(axis=1)
        d = sq[cand] - 2 * x32[anchors] @ x32[cand].T
        cut = np.partition(d, k - 1, axis=1)[:, k - 1] + 12 * (x.shape[1] + 1) \
            * np.finfo(np.float32).eps * (sq[anchors] + sq[cand].max())
    allowed = np.zeros((len(x), len(x)), dtype=bool)
    allowed[np.ix_(anchors, cand)] = True
    want = nearest_scan(x, allowed, k)
    return all((d[row, np.searchsorted(cand, want[i])] <= cut[row]).all()
               for row, i in enumerate(anchors))


# survivors per row of the float32 screen on each case, seed 31, k = 5: the
# figure measured, with 5% headroom for another BLAS kernel's rounding
SCREEN_SURVIVORS = {"magnitude-1e-30": 6.84, "magnitude-1e-20": 6.84,
                    "magnitude-1e20": 6.84, "magnitude-1e30": 6.84,
                    "near-duplicates": 6.51, "sq-near-1e6": 58.71, "all-tied": 149.67}


@pytest.mark.parametrize("case", sorted(SCREEN_SURVIVORS))
def test_nearest_float32_screen_on_hard_rows(case, caplog):
    """Rows from 1e-30 to 1e30 in magnitude, near-duplicates float32 cannot
    tell apart, rows far from the origin and all-tied rows: `_nearest`
    equals the exhaustive scan, and its DEBUG record counts the survivors
    per row. A plain float32 cast overflows |x|^2 from 1e20 on and loses
    true neighbours."""
    rng = np.random.default_rng(31)
    x = adversarial_rows(rng, case)
    s = rng.integers(0, 2, len(x))
    cells = [(np.flatnonzero(s == g), np.flatnonzero(s != g)) for g in (0, 1)]
    with caplog.at_level(logging.DEBUG, logger="fairgraph.losses"):
        assert_nearest_is_exhaustive(x, cells, 5)
    anchors, survivors, _ = map(int, re.findall(r"\d+", caplog.records[-1].getMessage()))
    assert anchors == len(x)
    if case == "all-tied":
        assert survivors == sum(len(a) * len(c) for a, c in cells)
    assert survivors <= 1.05 * SCREEN_SURVIVORS[case] * anchors
    if case in ("magnitude-1e20", "magnitude-1e30"):
        assert not plain_float32_keeps_top_k(x, *cells[0], 5)


def test_nearest_logs_its_survivors_at_debug(caplog):
    """One DEBUG record per call names the anchors, the survivors and the
    most survivors of one row; without DEBUG there is none, and the output
    is the same."""
    x = floats([[0.0], [2.0], [1.0], [-1.0], [1.0], [5.0], [7.0]])
    cells = [(np.array([0, 1]), np.array([2, 3, 4, 5])), (np.array([6]), np.zeros(0, int))]
    quiet = _nearest(x, cells, 2)
    assert not [r for r in caplog.records if r.name == "fairgraph.losses"]
    with caplog.at_level(logging.DEBUG, logger="fairgraph.losses"):
        loud = _nearest(x, cells, 2)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(quiet, loud, strict=True))
    messages = [r.getMessage() for r in caplog.records if r.name == "fairgraph.losses"]
    # row 0 ties three candidates at distance 1; row 1 keeps ids 2 and 4
    assert messages == ["top-k screen: 2 anchors, 5 survivors, at most 3 in one row"]


def test_top_k_and_contrast_repeat_bit_for_bit():
    """Two back-to-back calls return the same bytes: nothing a call writes
    into its buffers outlives it."""
    rng = np.random.default_rng(42)
    n = 2 * _BLOCK + 3
    x = rng.standard_normal((n, 6))
    cells = [random_cell(rng, n, _BLOCK + 1, 90)]
    first, second = _nearest(x, cells, 5), _nearest(x, cells, 5)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second, strict=True))
    y = rng.integers(0, 3, n)
    mask = np.ones(n, dtype=bool)
    (v1, g1), (v2, g2) = sc_loss(x, y, mask, 1.0), sc_loss(x, y, mask, 1.0)
    assert v1 == v2 and g1.tobytes() == g2.tobytes()


def test_top_k_kernels_agree_across_threads():
    """env_loss and select_counterfactuals on four threads at once (more
    than the cores), with the interpreter switching threads often, return
    what they return one at a time: each call owns its buffers."""
    rng = np.random.default_rng(43)
    inputs = []
    for t in range(4):
        n = 2 * _BLOCK + 40 * t + 3
        inputs.append((rng.standard_normal((n, 8)), rng.integers(0, 2, n),
                       rng.integers(0, 2, n)))

    def run(h, pseudo, s):
        cf = select_counterfactuals(h, pseudo, s, 5)
        value, grad = env_loss(h, s, 5)
        return b"".join(np.asarray(a).tobytes() for a in (*cf.e, *cf.c, value, grad))

    want = [run(*args) for args in inputs]
    got = [[] for _ in inputs]

    def worker(t):
        for _ in range(3):
            got[t].append(run(*inputs[t]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(4):
        assert len(got[t]) == 3
        assert all(result == want[t] for result in got[t])


NEAREST_IN_A_FRESH_PROCESS = """
import sys
import numpy as np
from fairgraph.losses import _nearest
rng = np.random.default_rng(44)
x = rng.standard_normal((2000, 16))
s = rng.integers(0, 2, 2000)
cells = [(np.flatnonzero(s == g), np.flatnonzero(s != g)) for g in (0, 1)]
sys.stdout.buffer.write(b"".join(a.tobytes() for a in _nearest(x, cells, 5)))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: two BLAS threads would not split the product")
def test_top_k_kernel_does_not_depend_on_blas_threads():
    """The screen's product runs in sgemm, whose summation order may change
    with its thread count; the slack holds for any order, so one and two
    OpenBLAS threads return the same bytes."""
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fairgraph.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", NEAREST_IN_A_FRESH_PROCESS], env=env,
                                  check=True, capture_output=True).stdout)
    assert len(out[0]) == 8 * (2000 + 2 * 2000 * 5)
    assert out[0] == out[1]


# ---------------------------------------------------------------------------
# prediction loss

def test_pred_loss_confident_and_uniform():
    probs = floats([[0.999999], [0.000001]])
    assert float(pred_loss(probs, [1, 0], [True, True])[0]) < 1e-5
    half = floats([[0.5]] * 4)
    assert float(pred_loss(half, [0, 1, 1, 0], [True] * 4)[0]) == \
        pytest.approx(math.log(2), abs=1e-12)


def test_pred_loss_hand_sum():
    p = [0.8, 0.3, 0.6]
    y = [1, 0, 1]
    expected = -(math.log(0.8) + math.log(0.7) + math.log(0.6)) / 3
    got = pred_loss(floats([[v] for v in p]), y, [True] * 3)
    assert float(got[0]) == pytest.approx(expected, abs=1e-12)


def test_pred_loss_gradient_is_closed_form():
    """dL/dlogit is (p - y) / count on masked rows inside the clamp, and
    exactly 0 outside the clamp or the mask."""
    probs = floats([[0.8], [1e-13], [0.3], [1.0 - 1e-14], [0.6], [0.5]])
    y = np.array([1, 0, 0, 1, 1, 0])
    mask = np.array([True, True, True, True, True, False])
    _, g = pred_loss(probs, y, mask)
    inside = np.array([True, False, True, False, True, True])
    assert np.array_equal(g[mask & inside, 0], ((probs[:, 0] - y) / 5)[mask & inside])
    assert not np.any(g[~(mask & inside)])


def test_pred_loss_mask_and_errors():
    probs = floats([[0.9], [0.1]])
    only_first = pred_loss(probs, [1, 1], [True, False])
    assert float(only_first[0]) == pytest.approx(-math.log(0.9), abs=1e-12)
    with pytest.raises(UndefinedMetricError):
        pred_loss(probs, [1, 1], [False, False])


# ---------------------------------------------------------------------------
# invariance loss

def cf_pair():
    # node 0's one counterfactual of each kind is node 1; node 1 has none
    one = (np.array([1, 0]), np.array([1]))
    return CounterfactualIndex(e=one, c=one, k=1)


def test_inv_loss_cosine_hand_sum():
    # content pair (0, 1) at 90 degrees: 1 - cos = 1; environment pair at 180
    # degrees: 1 - cos = 2; |cos(c_i, e_i)| is 1 for node 0 and 0 for node 1,
    # so gamma=2 adds 2 * 0.5. Row norms differ and must divide out.
    c = floats([[1.0, 0.0], [0.0, 2.0]])
    e = floats([[3.0, 0.0], [-0.5, 0.0]])
    assert float(inv_loss(c, e, cf_pair(), gamma=0.0)[0]) == 3.0
    assert float(inv_loss(c, e, cf_pair(), gamma=2.0)[0]) == 4.0


def test_inv_loss_vanishes_when_aligned_and_orthogonal():
    c = floats([[1.0, 0.0], [1.0, 0.0]])
    e = floats([[0.0, 1.0], [0.0, 1.0]])
    assert float(inv_loss(c, e, cf_pair(), gamma=2.0)[0]) == pytest.approx(0.0, abs=1e-15)


def test_inv_loss_logs_zero_rows_at_debug(caplog):
    # one of the three e-type pairs has a zero content row; c-type is empty
    c = floats([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    e = floats([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    cf = CounterfactualIndex(e=(np.ones(3, dtype=np.int64), np.array([1, 2, 1])),
                             c=(np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64)),
                             k=1)
    quiet = float(inv_loss(c, e, cf, gamma=1.0)[0])
    with caplog.at_level(logging.DEBUG, logger="fairgraph.losses"):
        loud = float(inv_loss(c, e, cf, gamma=1.0)[0])
    assert loud == quiet
    messages = [r.getMessage() for r in caplog.records if r.name == "fairgraph.losses"]
    assert messages == ["cosine distance: 1 zero-vector rows treated as cos=0"]


def test_inv_loss_gamma_linearity():
    rng = np.random.default_rng(4)
    c = floats(rng.standard_normal((6, 3)))
    e = floats(rng.standard_normal((6, 3)))
    cf = select_counterfactuals(np.hstack([c, e]),
                                rng.integers(0, 2, 6), rng.integers(0, 2, 6), 2)
    base = float(inv_loss(c, e, cf, gamma=1.0)[0])
    doubled = float(inv_loss(c, e, cf, gamma=2.0)[0])
    mean_abs_cos = float(np.mean(np.abs(
        [np.dot(c[i], e[i])
         / (np.linalg.norm(c[i]) * np.linalg.norm(e[i]))
         for i in range(6)])))
    assert doubled - base == pytest.approx(mean_abs_cos, abs=1e-12)


def test_inv_loss_nonnegative_cosine_metric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = floats(rng.standard_normal((8, 3)))
        e = floats(rng.standard_normal((8, 3)))
        cf = select_counterfactuals(np.hstack([c, e]),
                                    rng.integers(0, 2, 8), rng.integers(0, 2, 8), 2)
        assert float(inv_loss(c, e, cf, gamma=0.7)[0]) >= 0.0


def test_inv_loss_matches_tape():
    """More e-type and c-type pairs than one pair block, zero rows in both
    blocks, and nodes whose cos(c_i, e_i) is exactly 0, where |cos| takes
    the +1 side."""
    rng = np.random.default_rng(15)
    n, d = 1000, 6
    c, e = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    c[::97] = 0.0
    e[3::89] = 0.0
    orthogonal = np.arange(5, n, 101)
    c[orthogonal], e[orthogonal] = np.eye(d)[0], np.eye(d)[1] * 2.0
    cf = select_counterfactuals(np.hstack([c, e]), rng.integers(0, 2, n),
                                rng.integers(0, 2, n), 5)
    assert min(len(cf.pairs_e()[0]), len(cf.pairs_c()[0])) > _PAIR_BLOCK
    value, *grads = inv_loss(c, e, cf, gamma=0.7)
    want_value, *want = inv_loss_tape(c, e, cf, 0.7)
    assert_matches_tape(value, grads, want_value, want)
    # a zero row gets zero gradient; an orthogonal pair still gets the
    # gradient of |cos| on its + side
    assert not np.any(grads[0][::97]) and not np.any(grads[1][3::89])
    assert np.all(grads[0][orthogonal, 1] > 0) and np.all(grads[1][orthogonal, 0] > 0)


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
    h = floats(np.zeros((4, 3)))
    loss = suf_loss(h, [(0, 1), (1, 2)], [(0, 2), (0, 3)])
    assert float(loss[0]) == pytest.approx(math.log(2), abs=1e-12)


def test_suf_loss_hand_sum():
    h = floats([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    pos = [(0, 1)]   # logit 2
    neg = [(0, 2)]   # logit 0
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    expected = -(math.log(sig(2.0)) + math.log(1.0 - sig(0.0))) / 2.0
    assert float(suf_loss(h, pos, neg)[0]) == pytest.approx(expected, abs=1e-12)


def test_suf_loss_separates_in_the_limit():
    h = floats([[30.0, 0.0], [30.0, 0.0], [-30.0, 30.0], [0.0, -30.0]])
    loss = suf_loss(h, [(0, 1)], [(2, 3)])
    assert float(loss[0]) < 1e-8


def test_suf_loss_empty_errors():
    h = floats(np.zeros((3, 2)))
    with pytest.raises(UndefinedMetricError):
        suf_loss(h, [], [(0, 1)])


def test_suf_loss_matches_tape():
    """More pairs than one pair block, with logits beyond the clamp at both
    ends (|s| > 28, where the gradient is 0) and repeated pairs."""
    rng = np.random.default_rng(16)
    n, m = 400, 2600
    h = rng.standard_normal((n, 8))
    h[::7] *= 12.0
    pos = rng.integers(0, n, (m, 2))
    neg = rng.integers(0, n, (m, 2))
    logits = (h[pos[:, 0]] * h[pos[:, 1]]).sum(axis=1)
    assert 2 * m > _PAIR_BLOCK and logits.max() > 28 and logits.min() < -28
    value, grad = suf_loss(h, pos, neg)
    want_value, want = suf_loss_tape(h, pos, neg)
    assert_matches_tape(value, [grad], want_value, [want])


def test_suf_loss_takes_edge_tuples():
    # the graph's edges as tuples, as the gradient suite passes them
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 5), (3, 8), (4, 7), (0, 8)])
    neg = sample_negative_edges(g, g.m, seed=2)
    h = np.random.default_rng(17).standard_normal((9, 4))
    value, grad = suf_loss(h, g.edges, neg)
    want_value, want = suf_loss_tape(h, g.edges, neg)
    assert_matches_tape(value, [grad], want_value, [want])
    assert value == suf_loss(h, g.edge_array, neg)[0]


def test_suf_loss_memory_is_blockwise():
    """One forward and reverse pass at m = 143k edges (n = 20k, d = 32)
    stays below the bytes of one (2m, d) float64 array; a composition of
    per-pair ops held several."""
    n, m, d = 20_000, 143_000, 32
    rng = np.random.default_rng(18)
    x = rng.standard_normal((n, d)) * 0.2
    pos, neg = rng.integers(0, n, (m, 2)), rng.integers(0, n, (m, 2))
    tracemalloc.start()
    try:
        suf_loss(x, pos, neg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * d * 8, f"peak {peak / 2**20:.0f} MiB"


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
    c = floats([[1.0, 2.0], [1.0, 2.0]])
    assert float(sc_loss(c, [1, 1], [True, True], kappa=1.0)[0]) == \
        pytest.approx(0.0, abs=1e-15)


def test_sc_loss_all_distinct_labels_errors():
    c = floats(np.random.default_rng(7).standard_normal((2, 3)))
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
    got = float(sc_loss(floats(c), labels, [True] * 4, kappa=1.0)[0])
    assert got == pytest.approx(sc_loss_oracle(c, labels, 1.0), abs=1e-12)


def test_sc_loss_nonnegative_and_scale_invariant():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.standard_normal((7, 4))
        labels = rng.integers(0, 2, 7)
        if len(set(labels.tolist())) == 1 or min(np.bincount(labels)) == 0:
            continue
        base = float(sc_loss(floats(c), labels, [True] * 7, kappa=1.0)[0])
        assert base >= 0.0
        scaled = float(sc_loss(floats(3.7 * c), labels, [True] * 7, kappa=1.0)[0])
        assert scaled == pytest.approx(base, abs=1e-12)


def test_sc_loss_skips_unlabeled_nodes():
    rng = np.random.default_rng(10)
    c = rng.standard_normal((5, 3))
    mask = [True, True, True, False, False]
    got = float(sc_loss(floats(c), [0, 0, 1, 1, 1], mask, kappa=1.0)[0])
    want = sc_loss_oracle(c[:3], [0, 0, 1], 1.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_sc_loss_excludes_self_similarity():
    # every row is a scaled copy of another, so each anchor has a cosine of 1
    # with its own row and with one other row; only the other one counts
    rng = np.random.default_rng(11)
    base = rng.standard_normal((3, 4))
    c = np.vstack([base, 2.5 * base])
    labels = [0, 1, 1, 0, 1, 0]
    got = float(sc_loss(floats(c), labels, [True] * 6, kappa=1.0)[0])
    assert got == pytest.approx(sc_loss_oracle(c, labels, 1.0), abs=1e-12)


def test_sc_loss_zero_row_behaves_as_cos_zero():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((5, 3))
    c[2] = 0.0
    labels = [0, 0, 1, 1, 0]
    value, g = sc_loss(c, labels, [True] * 5, kappa=2.0)
    assert value == pytest.approx(sc_loss_oracle(c, labels, 2.0), abs=1e-12)
    assert np.array_equal(g[2], np.zeros(3))


@pytest.mark.parametrize("n_l,kappa,classes", [
    (2, 1.0, 1), (5, 1.0, 2), (40, 0.0, 3),
    pytest.param(_BLOCK, 0.5, 2, id="block-0.5-2"),
    pytest.param(_BLOCK + 1, 2.5, 2, id="block+1-2.5-2"),
    pytest.param(2 * _BLOCK + 3, 1.0, 2, id="2block+3-1.0-2"),
    pytest.param(2 * _BLOCK + 76, 1.0, 3, id="2block+76-1.0-3")])
def test_sc_loss_matches_dense_reference(n_l, kappa, classes):
    """The blockwise kernel against full n_l x n_l matrices: one case fills
    the _BLOCK-row buffers exactly, one straddles them by one row, and two
    cross two boundaries, ending in a partial block of 3 or 76 rows."""
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
    value, got = sc_loss(c, y, mask, kappa)
    want_value, want = sc_loss_dense(c, y, mask, kappa)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1e-300, np.max(np.abs(want)))
    assert not np.any(got[~mask])


def test_sc_loss_memory_is_blockwise():
    """One forward and reverse pass at n_l=4000 stays below the bytes of two
    n_l x n_l float64 matrices; a dense composition needs several."""
    n_l = 4000
    rng = np.random.default_rng(13)
    x = rng.standard_normal((n_l, 16))
    y = rng.integers(0, 2, n_l)
    tracemalloc.start()
    try:
        sc_loss(x, y, np.ones(n_l, bool), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_l * n_l * 8, f"peak {peak / 2**20:.0f} MiB"


# ---------------------------------------------------------------------------
# environmental loss

def test_env_loss_symmetric_pair():
    e = floats([[0.0, 0.0], [3.0, 4.0]])
    assert float(env_loss(e, [0, 1], 1)[0]) == pytest.approx(-5.0, abs=1e-12)


def test_env_loss_identical_rows_zero():
    e = floats(np.ones((6, 3)))
    assert float(env_loss(e, [0, 0, 0, 1, 1, 1], 2)[0]) == 0.0


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
    got = float(env_loss(floats(e), s, 2)[0])
    assert got == pytest.approx(env_loss_oracle(e, s, 2), abs=1e-12)
    # 4 * _BLOCK + 88 rows with exact ties: each group's anchors cross its
    # block boundaries
    n = 4 * _BLOCK + 88
    e = tied_rows(rng, n, 3)
    s = rng.integers(0, 2, n)
    got = float(env_loss(floats(e), s, 4)[0])
    assert got == pytest.approx(env_loss_oracle(e, s, 4), abs=1e-12)
    # a group of three: K' = 5 exceeds its pool for every node of the other
    minority = np.zeros(n, dtype=int)
    minority[[7, n // 2, n - 10]] = 1
    got = float(env_loss(floats(e), minority, 5)[0])
    assert got == pytest.approx(env_loss_oracle(e, minority, 5), abs=1e-12)
    # three groups, so the other group spans two cells; group 0 has more
    # anchors than one block, with ties across its block boundary; in the
    # second case its pool of 3 is below K' = 5
    for sizes, k_prime in (([3 * _BLOCK // 2 + 1, 60, 47], 4),
                           ([3 * _BLOCK // 2 + 1, 2, 1], 5)):
        e, s = cells_with_big_first(rng, sizes, 3)
        got = float(env_loss(floats(e), s, k_prime)[0])
        assert got == pytest.approx(env_loss_oracle(e, s, k_prime), abs=1e-12)


def test_topk_memory_is_cellwise():
    """One selection and one env_loss forward and reverse pass at n=4000,
    d=32 and the default K = K' = 5 stay below the bytes of one 256 x n
    float64 array; the mask-based kernel held several, a tape over the
    n*K' pairs three (n*K', d) arrays, and a top-k with a partitioned copy
    of each block two (block, candidates) buffers."""
    n, d = 4000, 32
    rng = np.random.default_rng(14)
    x = rng.standard_normal((n, d))
    s = rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        select_counterfactuals(x, rng.integers(0, 2, n), s, 5)
        env_loss(x, s, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * n * 8, f"peak {peak / 2**20:.1f} MiB"


def test_env_loss_matches_tape():
    """More pairs than one pair block, and repeated rows on both sides of
    the groups, so some nearest pairs sit at distance 0."""
    rng = np.random.default_rng(19)
    n = 1000
    e = tied_rows(rng, n, 4)
    s = rng.integers(0, 2, n)
    value, grad = env_loss(e, s, 5)
    want_value, want = env_loss_tape(e, s, 5)
    assert_matches_tape(value, [grad], want_value, [want])
    anchors = np.flatnonzero(s == 0)
    assert 5 * n > _PAIR_BLOCK and min(
        np.min(np.linalg.norm(e[s == 1] - e[i], axis=1)) for i in anchors) == 0.0


def test_env_loss_zero_distance_passes_no_gradient():
    e = np.tile([1.0, -2.0, 0.5], (6, 1))
    _, g = env_loss(e, [0, 0, 0, 1, 1, 1], 2)
    assert np.array_equal(g, np.zeros((6, 3)))


def test_env_loss_nonpositive_and_group_error():
    rng = np.random.default_rng(12)
    e = rng.standard_normal((8, 3))
    s = rng.integers(0, 2, 8)
    while len(set(s.tolist())) < 2:
        s = rng.integers(0, 2, 8)
    assert float(env_loss(floats(e), s, 3)[0]) <= 0.0
    with pytest.raises(UndefinedMetricError):
        env_loss(floats(e), np.zeros(8, dtype=int), 3)


# ---------------------------------------------------------------------------
# composite

def composite_parts(rng, n=5, d_c=2):
    """Parts with the five values 1..5 and random gradients, and a predictor
    weight column."""
    return LossParts(pred=(1.0, rng.standard_normal((n, 1))),
                     inv=(2.0, rng.standard_normal((n, d_c)), rng.standard_normal((n, d_c))),
                     suf=(3.0, rng.standard_normal((n, 2 * d_c))),
                     sc=(4.0, rng.standard_normal((n, d_c))),
                     env=(5.0, rng.standard_normal((n, d_c)))), rng.standard_normal((d_c, 1))


def test_total_loss_reductions():
    parts, w_pred = composite_parts(np.random.default_rng(20))
    w0 = LossWeights(alpha=0, beta=0, gamma=1, omega=0, eta=0)
    assert total_loss(parts, w0, w_pred)[0] == 1.0
    w1 = LossWeights(alpha=1, beta=1, gamma=1, omega=1, eta=1)
    assert total_loss(parts, w1, w_pred)[0] == 15.0
    caf = LossParts(pred=parts.pred, inv=parts.inv, suf=parts.suf)
    wc = LossWeights(alpha=0.5, beta=2.0, gamma=1, omega=0.3, eta=0.9)
    assert total_loss(caf, wc, w_pred)[0] == 1.0 + 0.5 * 2.0 + 2.0 * 3.0


def test_total_loss_adds_gradients_in_block_order():
    """dL/dH adds the weighted gradients, bit for bit, C: prediction
    (through w_pred), invariance, contrast; E: invariance, environment; then
    the structure term on all of H."""
    parts, w_pred = composite_parts(np.random.default_rng(21))
    w = LossWeights(alpha=0.3, beta=0.6, omega=0.7, eta=0.2)
    _, g_h, g_logit = total_loss(parts, w, w_pred)
    assert g_logit is parts.pred[1]
    g_c = (parts.pred[1] @ w_pred.T + 0.3 * parts.inv[1]) + 0.7 * parts.sc[1]
    g_e = 0.3 * parts.inv[2] + 0.2 * parts.env[1]
    assert np.array_equal(g_h, np.hstack([g_c, g_e]) + 0.6 * parts.suf[1])
    # prediction alone reaches C only
    _, g_h, _ = total_loss(LossParts(pred=parts.pred), LossWeights(), w_pred)
    assert np.array_equal(g_h, np.hstack([parts.pred[1] @ w_pred.T, np.zeros((5, 2))]))


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


def test_weights_must_be_finite_numbers():
    for name in ("alpha", "beta", "gamma", "omega", "eta", "kappa"):
        for bad in (math.nan, math.inf, -math.inf, True, "1", None):
            with pytest.raises(ValueError, match=name):
                LossWeights(**{name: bad})
            with pytest.raises(ConfigError, match=name):
                LossWeights.from_dict({name: bad})
    for bad in (math.nan, 2.0, True, 0):
        with pytest.raises(ValueError, match="K and K_prime"):
            LossWeights(k=bad)
    assert LossWeights(alpha=np.float64(0.5), k=np.int64(3)).to_dict()["K"] == 3


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
    params = init_params(d, hidden=6, d_c=4, seed=seed)
    agg = NeighborAggregator(g)
    mask = np.ones(n, bool)
    w = LossWeights(alpha=0.7, beta=0.9, gamma=0.5, omega=0.4, eta=0.2,
                    k=2, k_prime=2, kappa=1.0)
    cf = select_counterfactuals(encode(params, agg, x).h, y, s, w.k)
    neg = sample_negative_edges(g, g.m, seed=seed + 1)

    def build(which):
        """(value, parameter gradients, latent state, probabilities) of one
        term, or of the composite for "total", computed as the pipeline
        computes them; a single auxiliary term has encoder gradients only."""
        latent = encode(params, agg, x)
        probs = predict(params, latent.c)
        if which in ("pred", "total"):
            parts = LossParts(pred=pred_loss(probs, y, mask))
            if which == "total":
                parts.inv = inv_loss(latent.c, latent.e, cf, w.gamma)
                parts.suf = suf_loss(latent.h, g.edges, neg)
                parts.sc = sc_loss(latent.c, y, mask, w.kappa)
                parts.env = env_loss(latent.e, s, w.k_prime)
            value, g_h, g_logit = total_loss(parts, w, params.w)
            return value, ad.grad(params, latent, g_h, g_logit), latent, probs
        zeros = np.zeros_like(latent.c)
        if which == "inv":
            value, g_c, g_e = inv_loss(latent.c, latent.e, cf, w.gamma)
            g_h = np.hstack([g_c, g_e])
        elif which == "suf":
            value, g_h = suf_loss(latent.h, g.edges, neg)
        elif which == "sc":
            value, g_c = sc_loss(latent.c, y, mask, w.kappa)
            g_h = np.hstack([g_c, zeros])
        else:
            value, g_e = env_loss(latent.e, s, w.k_prime)
            g_h = np.hstack([zeros, g_e])
        return value, ad.grad(params, latent, g_h, np.zeros((n, 1)))[:4], latent

    return params, build


def test_grad_check_skips_abs_cos_kink():
    # node 0's content and environment rows are orthogonal, so |cos(c_0, e_0)|
    # sits on its kink; the probes of c_0[1] and e_0[0] flip the sign of the
    # cosine, and central differences there read 0 against the + side's 0.5
    c = np.array([[1.0, 0.0], [0.6, 0.8]])
    e = np.array([[0.0, 1.0], [0.8, -0.3]])
    none = (np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64))
    cf = CounterfactualIndex(e=none, c=none, k=1)

    def loss_fn():
        value, g_c, g_e = inv_loss(c, e, cf, 1.0)
        return value, [g_c, g_e]

    assert grad_check(loss_fn, [c, e]) < 1e-9


def test_grad_check_skips_suf_clamp_crossing():
    # the edge's logit h_0 . h_1 sits where sigmoid meets PROB_FLOOR, so the
    # probes of h_0[0] and h_1[0] cross the clamp: central differences there
    # read about half of the inside slope
    s = math.log(PROB_FLOOR / (1.0 - PROB_FLOOR))
    h = np.array([[s, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])

    def loss_fn():
        value, grad = suf_loss(h, [(0, 1)], [(2, 3)])
        return value, [grad]

    assert grad_check(loss_fn, [h]) < 1e-9


@pytest.mark.parametrize("which", ["pred", "inv", "suf", "sc", "env", "total"])
def test_every_loss_passes_grad_check(which):
    for seed in range(5):
        params, build = loss_builders(seed)
        arrays = params.arrays() if which in ("pred", "total") else params.arrays()[:4]
        err = grad_check(lambda: build(which), arrays, eps=1e-5, seed=seed)
        assert err < 1e-4, f"{which} seed {seed}: {err}"
