"""Training objectives: prediction, counterfactual invariance, structure
reconstruction, supervised contrast with bounded angular similarity, and
environmental separation — plus counterfactual selection and negative-edge
sampling.

Every loss returns its value and its gradient with respect to its own
inputs, as plain arrays: prediction with respect to the logit, invariance
with respect to C and E, structure with respect to H, contrast with respect
to C and environment with respect to E. No loss takes a weight: a kernel
computes each unweighted value and gradient in closed form, the pairwise
terms (invariance, structure, environment) one block of node pairs at a
time with one sparse product for the gradient. `total_loss` scales each
term by its weight as it adds the gradients into one dL/dH and one
dL/dlogit, which `autodiff.grad` takes through the model.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import CapacityError, ConfigError, UndefinedMetricError
from .graph import Graph, pair_codes, sorted_unique

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


COUNT_NAMES = {"k": "K", "k_prime": "K_prime"}  # config names; other fields are weights


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights and counts for the composite objective."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    omega: float = 1.0
    eta: float = 0.1
    k: int = 5
    k_prime: int = 5
    kappa: float = 1.0

    def __post_init__(self):
        """Each weight is a finite nonnegative number and each count a
        positive integer, the weights checked first; `from_dict` turns the
        ValueError into a ConfigError."""
        for f in sorted(fields(self), key=lambda fld: fld.name in COUNT_NAMES):
            value, count = getattr(self, f.name), f.name in COUNT_NAMES
            kind, low = (numbers.Integral, 1) if count else (numbers.Real, 0)
            if isinstance(value, bool) or not isinstance(value, kind) \
                    or not low <= value < math.inf:
                raise ValueError("K and K_prime must be positive counts" if count else
                                 f"{f.name} must be a finite nonnegative number, got {value!r}")

    def to_dict(self):
        return {COUNT_NAMES.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc):
        """Weights from a config mapping; any invalid field is a ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError(f"weights must be a mapping, got {type(doc).__name__}")
        names = {COUNT_NAMES.get(f.name, f.name): f.name for f in fields(cls)}
        unknown = set(doc) - set(names)
        if unknown:
            raise ConfigError(f"unknown weight fields: {sorted(unknown)}")
        kw = {name: _whole_number(key, doc[key]) if name in COUNT_NAMES else doc[key]
              for key, name in names.items() if key in doc}
        try:
            return cls(**kw)
        except ValueError as exc:
            raise ConfigError(f"bad weights: {exc}") from exc


def _whole_number(field, value):
    """value as an int when it is a whole number (5 or 5.0); 2.7 is an error,
    not a count of 2."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{field} must be a whole number, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# counterfactual selection

@dataclass(frozen=True)
class CounterfactualIndex:
    """Per node, up to K nearest latent neighbors of each counterfactual kind:
    e-type shares the pseudo-label with opposite sensitive attribute, c-type
    the reverse. Each kind is kept as the (counts, ids) `_nearest` returns:
    counts[i] hits for node i, then every node's hits in node order, nearest
    first. Lists are shorter than K only when candidates run out."""

    e: tuple
    c: tuple
    k: int

    # per node, its ids as an array; and the number of nodes without any
    e_ids = property(lambda self: tuple(np.split(self.e[1], np.cumsum(self.e[0])[:-1])))
    c_ids = property(lambda self: tuple(np.split(self.c[1], np.cumsum(self.c[0])[:-1])))
    empty_e = property(lambda self: int(np.count_nonzero(self.e[0] == 0)))
    empty_c = property(lambda self: int(np.count_nonzero(self.c[0] == 0)))

    def pairs_e(self):
        """(anchor_ids, counterfactual_ids) over realized e-pairs."""
        return np.repeat(np.arange(len(self.e[0])), self.e[0]), self.e[1]

    def pairs_c(self):
        return np.repeat(np.arange(len(self.c[0])), self.c[0]), self.c[1]


_BLOCK = 128          # anchor rows per block of the top-k and contrast kernels
_GROUPS = 128         # column groups whose minima give `_nearest` its cut
_PAIR_BLOCK = 1024    # node pairs per block of the pairwise kernels


def _nearest(x, cells, k):
    """Exact k nearest candidates per row of x by squared L2, cell by cell.

    cells holds (anchors, candidates) pairs of increasing node-id arrays;
    each row is an anchor of at most one cell, and its candidates are that
    cell's. Returns (counts, ids, sq_dists): the number of hits per row, the
    hits flattened in (row, distance, id) order, so ties go to the smaller
    id, and each hit's squared distance |x_row - x_id|^2. A row has fewer
    than k hits only when it has fewer candidates.

    A float32 screen picks survivors and float64 ranks them. The screen
    reads a = 2^p x, p chosen so that x's largest entry scales into [1/2,
    1): y = a and q = |a|^2 (summed in float64) rounded to float32, values
    below float32's smallest normal set to 0. One block of a cell's anchors
    is screened against the cell's candidate columns at a time: the anchor
    rows [y_i; 1] against the columns [-2 y_j; q_j] (scaling by -2 is
    exact) give, in one product, d_ij ~ |a_j|^2 - 2 a_i.a_j, which is
    |a_i - a_j|^2 - |a_i|^2 and orders a row as the distance does. The cut
    is the k-th smallest of the minima of G = min(max(_GROUPS, k),
    candidates) disjoint groups of columns (column g, g + G, g + 2G, ...;
    the last candidates mod G are screened but join no group), plus a
    slack, rounded up to float32. Those minima are the values of G distinct
    candidates, so at least k candidates lie at or below the cut. Each
    survivor, a candidate at or below the cut, gets its float64 |x_i -
    x_j|^2, e_ij, in which rows equal to each other tie exactly. A row's
    survivors are contiguous and in id order (one block, read row-major),
    so a stable sort of each row by e gives the (distance, id) order; rows
    with as many survivors are sorted together, one argsort per distinct
    count, so the loop runs at most sqrt(2 survivors) times.

    The slack keeps every top-k candidate. Let u = 2^-24 and l = 2^-126,
    float32's unit roundoff and smallest normal; N = dim + 1 >= 2, g = N u
    / (1 - N u) (gamma_N of Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3), S_i = |a_i|^2, D_ij = |a_i - a_j|^2 and E = 4^p e,
    which orders as e does. Every |a| < 1, and u <= g / 2.
    - Rounding to float32: |y - a| <= u |a| + l per entry (l when flushed
      to 0), so 2 |y_i.y_j - a_i.a_j| <= (2u + u^2) (S_i + S_j) + 6 dim l;
      and |q_j - S_j| <= 2 u S_j + 2 l.
    - The product, N terms summed in any order, fused or not, so by any
      BLAS kernel on any number of threads, is off q_j - 2 y_i.y_j by at
      most g (q_j + 2 sum_k |y_ik y_jk|), plus l for each of its at most 2N
      roundings that underflows, gradually or flushed to 0.
    - Together |d_ij - (D_ij - S_i)| <= A_ij = g (2.1 S_i + 4.1 S_j) + 9 N l.
    - The float64 e (`_pair_dots`): |E_ij - D_ij| <= B_ij = 2^-27 g (S_i +
      S_j) + l, while x's largest entry lies in [2^-400, 2^500) and dim <
      2^21, so that e neither overflows nor loses more than l to underflow.
    - A top-k candidate t has E_it at most the largest E_ij of the k
      candidates j under the cut, so d_it <= d_ij + A_ij + A_it + B_ij +
      B_it. With S <= (1 + 3u) q + 3 l, that is at most the k-th minimum
      plus g (4.4 q_i + 8.4 max q_j) + (18 N + 21) l. The slack is g (5
      q_i + 9 max q_j) + 20 (N + 1) l, whose margin covers the float64 sum
      of the minimum and the slack; rounding that sum up to float32 only
      adds to it.
    With no columns every value is an exact 0.

    Memory is the float32 [y; q] of every row, one float32 (block,
    candidates) buffer per cell, allocated once and reused by every block,
    the (block, G) minima, and the survivors' rows, ids and distances.
    """
    n, dim = x.shape
    u, tiny = np.finfo(np.float32).eps / 2, np.finfo(np.float32).smallest_normal
    gamma = (dim + 1) * u / (1.0 - (dim + 1) * u)
    scaled = x * np.ldexp(1.0, -np.frexp(np.abs(x).max(initial=0.0))[1])
    screen = np.empty((n, dim + 1), dtype=np.float32)
    screen[:, :dim] = scaled
    screen[:, dim] = (scaled * scaled).sum(axis=1)
    screen[np.abs(screen) < tiny] = 0.0
    q = screen[:, dim].astype(np.float64)
    rows, ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for anchors, cand in cells:
        if len(cand) == 0:
            continue
        cand_rows = screen[cand]
        cand_rows[:, :dim] *= -2.0
        margin = 9.0 * gamma * q[cand].max() + 20.0 * (dim + 2) * tiny
        kth = min(k, len(cand)) - 1
        groups = min(max(_GROUPS, k), len(cand))
        grouped = len(cand) // groups * groups
        anchor_rows = np.ones((min(_BLOCK, len(anchors)), dim + 1), dtype=np.float32)
        expansion = np.empty((len(anchor_rows), len(cand)), dtype=np.float32)
        minima = np.empty((len(anchor_rows), groups), dtype=np.float32)
        for start in range(0, len(anchors), _BLOCK):
            block = anchors[start:start + _BLOCK]
            anchor_rows[:len(block), :dim] = screen[block, :dim]
            d = expansion[:len(block)]
            np.matmul(anchor_rows[:len(block)], cand_rows.T, out=d)
            part = minima[:len(block)]
            d[:, :grouped].reshape(len(block), -1, groups).min(axis=1, out=part)
            part.partition(kth, axis=1)
            cut = part[:, kth] + (5.0 * gamma * q[block] + margin)
            up = cut.astype(np.float32)
            np.nextafter(up, np.inf, out=up, where=up < cut)
            r, c = np.divmod(np.flatnonzero(d <= up[:, None]), len(cand))
            rows.append(block[r])
            ids.append(cand[c])
    rows, ids = np.concatenate(rows), np.concatenate(ids)
    exact = _pair_dots(x, rows, ids, differences=True)
    heads = np.flatnonzero(np.diff(rows, prepend=-1))
    lengths, owners = np.diff(heads, append=len(rows)), rows[heads]
    counts = np.zeros(n, dtype=np.int64)
    counts[owners] = np.minimum(lengths, k)
    starts = (np.cumsum(counts) - counts)[owners]
    take = np.empty(counts.sum(), dtype=np.int64)
    for length in np.unique(lengths):
        segments = np.flatnonzero(lengths == length)
        span = heads[segments, None] + np.arange(length)
        order = np.argsort(exact[span], axis=1, kind="stable")
        kept = min(length, k)
        take[starts[segments, None] + np.arange(kept)] = \
            np.take_along_axis(span, order[:, :kept], axis=1)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("top-k screen: %d anchors, %d survivors, at most %d in one row",
                  sum(len(a) for a, c in cells if len(c)), len(rows),
                  lengths.max(initial=0))
    return counts, ids[take], exact[take]


def select_counterfactuals(h, pseudo, sensitive, k) -> CounterfactualIndex:
    """K nearest same-label/different-sensitive and different-label/
    same-sensitive nodes for every node, by squared L2 in the latent space.
    Ties break toward the smaller node id; a node never matches itself."""
    h = np.asarray(h, dtype=np.float64)
    pseudo = np.asarray(pseudo)
    sensitive = np.asarray(sensitive)

    # one cell per (pseudo-label, group) pair: e-type candidates share the
    # label and differ in group, c-type candidates the reverse
    e_cells, c_cells = [], []
    for label in np.unique(pseudo):
        same_label = pseudo == label
        for group in np.unique(sensitive[same_label]):
            same_group = sensitive == group
            anchors = np.flatnonzero(same_label & same_group)
            e_cells.append((anchors, np.flatnonzero(same_label & (sensitive != group))))
            c_cells.append((anchors, np.flatnonzero((pseudo != label) & same_group)))

    cf = CounterfactualIndex(e=_nearest(h, e_cells, k)[:2],
                             c=_nearest(h, c_cells, k)[:2], k=k)
    if cf.empty_e or cf.empty_c:
        log.debug("counterfactual selection: %d nodes without e-type, %d without c-type",
                  cf.empty_e, cf.empty_c)
    return cf


# ---------------------------------------------------------------------------
# losses

def pred_loss(probs, labels, mask):
    """Mean binary cross-entropy over masked nodes, probabilities clamped to
    [PROB_FLOOR, 1 - PROB_FLOOR]; returns (value, dL/dlogit), probs being
    the (n, 1) sigmoid of the logit. dL/dlogit is (p - y) mask / count
    where p lies inside the clamp, and 0 where the clamp holds it. Rows
    outside the mask are multiplied by 0, so their labels may be anything,
    such as the -1 of an unknown label."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise UndefinedMetricError("prediction loss needs a nonempty mask")
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    w = mask.astype(np.float64).reshape(-1, 1)
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    ll = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    value = -((w * ll).sum() * (1.0 / count))
    inside = (probs >= PROB_FLOOR) & (probs <= 1.0 - PROB_FLOOR)
    return value, np.where(inside, (probs - y) / count * w, 0.0)


def _pair_dots(x, i, j, differences=False):
    """x[i_k] . x[j_k] for every pair k, or the squared distance |x[i_k] -
    x[j_k]|^2 when differences is set, one block of pairs at a time, so no
    (pairs, d) array is ever held."""
    out = np.empty(len(i))
    for start in range(0, len(i), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        rows = np.take(x, i[block], axis=0)
        if differences:
            rows -= np.take(x, j[block], axis=0)
            rows *= rows
        else:
            rows *= np.take(x, j[block], axis=0)
        out[block] = rows.sum(axis=1)
    return out


def _symmetric(n, i, j, w):
    """W + W^T as an n x n sparse matrix, W holding w[k] at (i[k], j[k]) with
    repeated pairs added: for a sum of f(x_i . x_j) over the pairs it maps x
    to the gradient when w[k] is f'."""
    return sp.coo_matrix((np.concatenate([w, w]),
                          (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(n, n))


def _inv_value_and_grad(c, e, cf, gamma):
    """Invariance loss and its gradients with respect to c and e.

    With u and v the unit rows of c and e, the loss is gamma * mean_i
    |u_i . v_i| plus, per block, the mean of 1 - u_i . u_j over its pairs
    (e-type pairs on c, c-type pairs on e). A zero row counts as cos = 0,
    and d|cos|/dcos is +1 at 0. The gradient of a mean over P pairs with
    respect to u is -(S + S^T) u / P, S counting the pairs; all of it then
    goes back through the normalisation.
    """
    n = c.shape[0]
    u, c_norms = ad.unit_rows(c)
    v, e_norms = ad.unit_rows(e)
    cos = (u * v).sum(axis=1)
    value = np.abs(cos).sum() * (1.0 / n) * gamma
    own = (gamma * (1.0 / n) * np.where(cos >= 0, 1.0, -1.0))[:, None]
    grads = []
    for x, norms, other, (i, j) in ((u, c_norms, v, cf.pairs_e()),
                                    (v, e_norms, u, cf.pairs_c())):
        g = own * other
        if len(i):
            if log.isEnabledFor(logging.DEBUG):
                zero = norms[:, 0] == 0
                zero_rows = int(np.count_nonzero(zero[i] | zero[j]))
                if zero_rows:
                    log.debug("cosine distance: %d zero-vector rows treated as cos=0",
                              zero_rows)
            value = value + (1.0 - _pair_dots(x, i, j)).sum() * (1.0 / len(i))
            g -= _symmetric(n, i, j, np.full(len(i), 1.0 / len(i))) @ x
        grads.append(ad.unit_rows_backward(g, x, norms))
    return value, grads[0], grads[1]


def inv_loss(c, e, cf: CounterfactualIndex, gamma):
    """Counterfactual invariance: content should match its e-type
    counterfactuals, environment its c-type counterfactuals, and the two
    blocks should stay orthogonal per node.

    Missing counterfactual terms are skipped and each distance sum is
    averaged over realized pairs only; the |cos(c_i, e_i)| term always
    contributes gamma * mean_i |cos| once per node. Returns (value,
    dvalue/dc, dvalue/de), from a closed form.
    """
    return _inv_value_and_grad(c, e, cf, float(gamma))


def _in_sorted(codes, values):
    """Which values occur in the increasing, non-negative array codes."""
    return np.append(codes, -1)[np.searchsorted(codes, values)] == values


def sample_negative_edges(g: Graph, count, seed):
    """Uniform sample of unordered non-adjacent pairs, without replacement,
    as a (count, 2) int64 array of u < v rows in lexicographic order."""
    n = g.n
    capacity = n * (n - 1) // 2 - g.m
    if count > capacity:
        raise CapacityError(
            f"asked for {count} negative edges, capacity {capacity}: the structure "
            "loss (beta > 0) draws one non-adjacent node pair per edge, so the graph "
            "needs at least as many non-adjacent pairs as edges")
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    rng = np.random.default_rng(seed)
    codes = pair_codes(n, g.edge_array)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= 200_000 or count * 2 > capacity:
        every = pair_codes(n, np.column_stack(np.triu_indices(n, k=1)))
        pool = np.setdiff1d(every, codes, assume_unique=True)
        picked = np.sort(pool[rng.choice(len(pool), size=count, replace=False)])
    else:
        # rejection sampling, one batch of pairs at a time; a batch continues
        # the scalar draw sequence and holds only as many pairs as codes are
        # missing, so the set never overshoots and ends where drawing one
        # pair at a time would stop
        picked = np.zeros(0, dtype=np.int64)
        while len(picked) < count:
            uv = np.sort(rng.integers(0, n, size=(count - len(picked), 2)), axis=1)
            drawn = sorted_unique((uv[:, 0] * n + uv[:, 1])[uv[:, 0] != uv[:, 1]])
            new = drawn[~_in_sorted(codes, drawn)]
            picked = np.sort(np.concatenate([picked, new[~_in_sorted(picked, new)]]))
    return np.stack([picked // n, picked % n], axis=1)


def _suf_value_and_grad(h, pairs, n_pos):
    """Structure loss over node pairs, the first n_pos of them edges, and its
    gradient with respect to h.

    With s = h_i . h_j, p = sigmoid(s) clamped to [PROB_FLOOR, 1 -
    PROB_FLOOR] and a = 1 on edges, the loss is minus the mean of a log p +
    (1 - a) log(1 - p), and dL/ds = -(a - p) [p inside the clamp] / N over
    the N pairs.
    """
    i, j = pairs[:, 0], pairs[:, 1]
    p = ad.logistic(_pair_dots(h, i, j))
    inside = (p >= PROB_FLOOR) & (p <= 1.0 - PROB_FLOOR)
    np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR, out=p)
    ll = np.log(np.concatenate([p[:n_pos], 1.0 - p[n_pos:]]))
    value = -(ll.sum() * (1.0 / len(p)))
    p[:n_pos] -= 1.0
    slope = np.where(inside, p, 0.0) * (1.0 / len(p))
    return value, _symmetric(h.shape[0], i, j, slope) @ h


def suf_loss(h, pos_edges, neg_edges):
    """Link reconstruction: sigmoid(h_i . h_j) scored against edge presence,
    averaged over positive and negative pairs together. Both edge sets are
    (k, 2) arrays or sequences of node pairs. Returns (value, dvalue/dh),
    from a closed form with the pair dots one block at a time."""
    if len(pos_edges) == 0 or len(neg_edges) == 0:
        raise UndefinedMetricError("structure loss needs positive and negative edges")
    pairs = np.concatenate([np.asarray(pos_edges, dtype=np.int64).reshape(-1, 2),
                            np.asarray(neg_edges, dtype=np.int64).reshape(-1, 2)])
    return _suf_value_and_grad(h, pairs, len(pos_edges))


def _tvmf(cos, kappa, phi=None, slope=None):
    """Bounded angular similarity phi = (1 + cos) / (1 + kappa*(1 - cos)) - 1,
    elementwise over an array of cosines, and its slope dphi/dcos =
    (1 + 2 kappa) / (1 + kappa*(1 - cos))^2. Given phi and slope, arrays
    shaped like cos, it writes the results there instead of allocating
    them; phi may be cos itself."""
    den = np.subtract(1.0, cos, out=slope)
    den *= kappa
    den += 1.0
    phi = np.add(cos, 1.0, out=phi)
    phi /= den
    phi -= 1.0
    den *= den
    return phi, np.divide(1.0 + 2.0 * kappa, den, out=den)


def _sc_value_and_grad(u, y, kappa):
    """Supervised t-vMF contrast over unit (or zero) rows u with labels y,
    and its gradient with respect to u, one block of anchor rows at a time.
    The rows come sorted by label, so each class's columns are one
    contiguous slice.

    With phi = tvmf(u u^T), D_i = sum_{j != i} exp(phi_ij) and P(i) the other
    rows of i's class, the loss is sum over rows with |P(i)| > 0 of
    log D_i - mean_{j in P(i)} phi_ij, and dL/dphi_ij = exp(phi_ij) / D_i -
    [j in P(i)] / |P(i)| for those rows (0 for the rest). Memory stays
    O(block * n): three (block, n) buffers, allocated once per call and
    reused by every block, hold cos then phi, the slope, and exp(phi) then
    dL/dcos.
    """
    n = u.shape[0]
    _, starts, class_sizes = np.unique(y, return_index=True, return_counts=True)
    ends = starts + class_sizes
    pos_counts = np.repeat(class_sizes - 1, class_sizes)
    if not np.any(pos_counts > 0):
        raise UndefinedMetricError("every positive set is empty")
    has_pos = (pos_counts > 0).astype(np.float64)
    inv_pos = np.divide(1.0, pos_counts, out=np.zeros(n), where=pos_counts > 0)
    row_loss = np.empty(n)
    grad = np.zeros_like(u)
    buffers = np.empty((3, min(_BLOCK, n), n))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        diag = (np.arange(stop - start), np.arange(start, stop))
        phi, slope, g = buffers[:, :stop - start]
        np.matmul(u[start:stop], u.T, out=phi)
        _tvmf(phi, kappa, phi, slope)
        np.exp(phi, out=g)
        g[diag] = 0.0
        exp_sums = g.sum(axis=1)
        g *= (has_pos[start:stop] / exp_sums)[:, None]
        # the positives: each class's anchor rows in this block against the
        # class's columns, less the anchor itself
        pos_phi = -phi[diag]
        for c in range(np.searchsorted(ends, start, side="right"),
                       np.searchsorted(starts, stop)):
            lo, hi = max(starts[c], start), min(ends[c], stop)
            anchors = slice(lo - start, hi - start)
            pos_phi[anchors] += phi[anchors, starts[c]:ends[c]].sum(axis=1)
            g[anchors, starts[c]:ends[c]] -= inv_pos[lo:hi, None]
        g[diag] = 0.0  # an anchor is neither its own negative nor positive
        row_loss[start:stop] = has_pos[start:stop] * np.log(exp_sums) \
            - inv_pos[start:stop] * pos_phi
        # dL/dcos = dL/dphi * dphi/dcos, then the chain rule through
        # cos = u[block] u^T
        g *= slope
        grad[start:stop] += g @ u
        grad += g.T @ u[start:stop]
    return row_loss.sum(), grad


def sc_loss(c, labels, participant_mask, kappa):
    """Supervised contrast on content rows: each participating node is pulled
    toward same-label participants and pushed from the rest, with the t-vMF
    similarity in place of the dot product. Nodes without positives are
    skipped; if no node has a positive the loss is undefined.

    Returns (value, dvalue/dc). The kernel works on the normalised
    participant rows, blockwise; each participant's gradient row goes back
    to its own row of c (each participates once), and other rows get
    zero."""
    mask = np.asarray(participant_mask, dtype=bool)
    idx = np.where(mask)[0]
    if len(idx) < 2:
        raise UndefinedMetricError("supervised contrast needs >= 2 participating nodes")
    y = np.asarray(labels).reshape(-1)[idx]
    by_label = np.argsort(y, kind="stable")
    rows = idx[by_label]
    u, norms = ad.unit_rows(c[rows])
    value, grad_u = _sc_value_and_grad(u, y[by_label], float(kappa))
    grad = np.zeros_like(c)
    grad[rows] = ad.unit_rows_backward(grad_u, u, norms)
    return value, grad


def env_loss(e, sensitive, k_prime):
    """Environmental separation: minus the mean distance from each node to its
    K' nearest opposite-group neighbors in the environment block. Returns
    (value, dvalue/de), from a closed form."""
    if k_prime < 1:
        raise ValueError("K_prime must be >= 1")
    s = np.asarray(sensitive).reshape(-1)
    n = len(s)
    if (s == s[0]).all():
        raise UndefinedMetricError("environment loss needs both sensitive groups")
    cells = [(np.flatnonzero(s == group), np.flatnonzero(s != group))
             for group in np.unique(s)]
    counts, partners, sq_dist = _nearest(e, cells, k_prime)
    anchors = np.repeat(np.arange(n, dtype=np.int64), counts)
    w = 1.0 / (n * counts[anchors])
    dist = np.sqrt(sq_dist)
    # d dist / d e_i = (e_i - e_j) / dist, so the gradient is minus the
    # Laplacian weighted by w / dist times e; a zero distance adds nothing
    slope = np.divide(w, dist, out=np.zeros_like(w), where=dist > 0)
    degree = np.bincount(anchors, slope, n) + np.bincount(partners, slope, n)
    grad = _symmetric(n, anchors, partners, slope) @ e - degree[:, None] * e
    return -(w * dist).sum(), grad


@dataclass
class LossParts:
    """The five terms as their losses returned them, (value, gradients...),
    unweighted; absent terms stay None."""

    pred: tuple
    inv: tuple | None = None
    suf: tuple | None = None
    sc: tuple | None = None
    env: tuple | None = None

    def values(self):
        parts = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: None if part is None else float(part[0])
                for name, part in parts.items()}


def total_loss(parts: LossParts, weights: LossWeights, w_pred):
    """pred + alpha*inv + beta*suf + omega*sc + eta*env over present parts.

    Returns (value, dL/dH, dL/dlogit); this is the one place a weight
    touches the objective. w_pred is the predictor's (d_c, 1) weight
    column, through which the prediction term reaches C; E is as wide as C.
    Each block adds its weighted gradients in one fixed order: C
    prediction, invariance, contrast; E invariance, environment; then H the
    structure term.
    """
    terms = [(1.0, parts.pred), (weights.alpha, parts.inv),
             (weights.beta, parts.suf), (weights.omega, parts.sc),
             (weights.eta, parts.env)]
    total = None
    for coeff, part in terms:
        if part is None:
            continue
        piece = part[0] * float(coeff)
        total = piece if total is None else total + piece
    g_logit = parts.pred[1]
    g_c = g_logit @ w_pred.T
    g_e = np.zeros_like(g_c)
    if parts.inv is not None:
        g_c = g_c + weights.alpha * parts.inv[1]
        g_e = weights.alpha * parts.inv[2]
    if parts.sc is not None:
        g_c = g_c + weights.omega * parts.sc[1]
    if parts.env is not None:
        g_e = g_e + weights.eta * parts.env[1]
    g_h = np.concatenate([g_c, g_e], axis=1)
    if parts.suf is not None:
        g_h = g_h + weights.beta * parts.suf[1]
    return total, g_h, g_logit
