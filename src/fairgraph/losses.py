"""Training objectives: prediction, counterfactual invariance, structure
reconstruction, supervised contrast with bounded angular similarity, and
environmental separation — plus counterfactual selection and negative-edge
sampling.

All losses return scalar autodiff Tensors so one reverse pass covers the
whole composite objective.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapacityError, ConfigError, NumericError, UndefinedMetricError
from .graph import Graph, pair_codes

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


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
        for name in ("alpha", "beta", "gamma", "omega", "eta", "kappa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.k < 1 or self.k_prime < 1:
            raise ValueError("K and K_prime must be positive counts")

    def to_dict(self):
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                "omega": self.omega, "eta": self.eta, "K": self.k,
                "K_prime": self.k_prime, "kappa": self.kappa}

    @classmethod
    def from_dict(cls, doc):
        """Weights from a config mapping; any invalid field is a ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError(f"weights must be a mapping, got {type(doc).__name__}")
        known = {"alpha", "beta", "gamma", "omega", "eta", "K", "K_prime", "kappa"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown weight fields: {sorted(unknown)}")
        kw = {k: v for k, v in doc.items() if k in ("alpha", "beta", "gamma",
                                                    "omega", "eta", "kappa")}
        for field, name in (("K", "k"), ("K_prime", "k_prime")):
            if field in doc:
                kw[name] = _whole_number(field, doc[field])
        try:
            return cls(**kw)
        except (TypeError, ValueError) as exc:
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
    the reverse. Lists may be shorter than K only when candidates run out."""

    e_ids: tuple          # tuple of int arrays, per node
    c_ids: tuple
    k: int
    empty_e: int = 0      # nodes with no e-type candidate at all
    empty_c: int = 0

    def pairs_e(self):
        """Flattened (anchor_ids, counterfactual_ids) over realized e-pairs."""
        return _flatten_pairs(self.e_ids)

    def pairs_c(self):
        return _flatten_pairs(self.c_ids)


def _flatten_pairs(id_lists):
    counts = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(id_lists))
    anchors = np.repeat(np.arange(len(id_lists), dtype=np.int64), counts)
    partners = np.concatenate([np.zeros(0, dtype=np.int64), *id_lists])
    return anchors, partners.astype(np.int64, copy=False)


_BLOCK = 128   # anchor rows per block of the top-k and contrast kernels


def _nearest(x, cells, k):
    """Exact k nearest candidates per row of x by squared L2, cell by cell.

    cells holds (anchors, candidates) pairs of increasing node-id arrays;
    each row is an anchor of at most one cell, and its candidates are that
    cell's. Returns (counts, ids): the number of hits per row and the hits
    flattened in (row, distance, id) order, so ties go to the smaller id. A
    row has fewer than k hits only when it has fewer candidates. Distances
    are sq_i + sq_j - 2 x_i.x_j clamped at 0, one block of a cell's anchors
    against the cell's candidate columns at a time, so memory stays
    O(block * candidates).
    """
    sq = (x * x).sum(axis=1)
    counts = np.zeros(x.shape[0], dtype=np.int64)
    rows, ids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for anchors, cand in cells:
        if len(cand) == 0:
            continue
        xc, sqc = x[cand], sq[cand]
        kth = min(k, len(cand)) - 1
        for start in range(0, len(anchors), _BLOCK):
            block = anchors[start:start + _BLOCK]
            d = sq[block, None] + sqc[None, :] - 2.0 * (x[block] @ xc.T)
            np.maximum(d, 0.0, out=d)
            # every candidate at or below the k-th smallest distance, then an
            # exact (row, distance, id) sort of those few; the columns are in
            # id order, so the column breaks a tie as the id would
            cut = np.partition(d, kth, axis=1)[:, kth, None]
            r, c = np.nonzero(d <= cut)
            order = np.lexsort((c, d[r, c], r))
            r, c = r[order], c[order]
            row_hits = np.bincount(r, minlength=len(block))
            keep = np.arange(len(r)) - (np.cumsum(row_hits) - row_hits)[r] < k
            counts[block] = np.minimum(row_hits, k)
            rows.append(block[r[keep]])
            ids.append(cand[c[keep]])
    # back to row order; the stable sort keeps each row's hits in order
    order = np.argsort(np.concatenate(rows), kind="stable")
    return counts, np.concatenate(ids)[order]


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

    def nearest(cells):
        counts, ids = _nearest(h, cells, k)
        return (tuple(np.split(ids, np.cumsum(counts)[:-1])),
                int(np.count_nonzero(counts == 0)))

    e_ids, empty_e = nearest(e_cells)
    c_ids, empty_c = nearest(c_cells)
    if empty_e or empty_c:
        log.debug("counterfactual selection: %d nodes without e-type, %d without c-type",
                  empty_e, empty_c)
    return CounterfactualIndex(e_ids=e_ids, c_ids=c_ids, k=k, empty_e=empty_e,
                               empty_c=empty_c)


# ---------------------------------------------------------------------------
# losses

def pred_loss(probs: Tensor, labels, mask) -> Tensor:
    """Mean binary cross-entropy over masked nodes, probabilities clamped."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise UndefinedMetricError("prediction loss needs a nonempty mask")
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    w = mask.astype(np.float64).reshape(-1, 1)
    p = ad.clamp(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    ll = ad.mul(y, ad.tlog(p)) + ad.mul(1.0 - y, ad.tlog(1.0 - p))
    return -(ad.tsum(ad.mul(w, ll)) * (1.0 / count))


def _pair_distances(x: Tensor, anchors, partners):
    """Cosine distance 1 - cos between rows `anchors` and `partners`."""
    if log.isEnabledFor(logging.DEBUG):
        zero_rows = int(np.sum(
            (np.linalg.norm(x.value[anchors], axis=1) == 0)
            | (np.linalg.norm(x.value[partners], axis=1) == 0)))
        if zero_rows:
            log.debug("cosine distance: %d zero-vector rows treated as cos=0", zero_rows)
    return 1.0 - ad.rowwise_cosine(ad.gather_rows(x, anchors),
                                   ad.gather_rows(x, partners))


def inv_loss(c: Tensor, e: Tensor, cf: CounterfactualIndex, gamma) -> Tensor:
    """Counterfactual invariance: content should match its e-type
    counterfactuals, environment its c-type counterfactuals, and the two
    blocks should stay orthogonal per node.

    Missing counterfactual terms are skipped and each distance sum is
    averaged over realized pairs only; the |cos(c_i, e_i)| term always
    contributes gamma * mean_i |cos| once per node.
    """
    ie, je = cf.pairs_e()
    ic, jc = cf.pairs_c()
    total = ad.mul(ad.tmean(ad.tabs(ad.rowwise_cosine(c, e))), float(gamma))
    if len(ie):
        total = total + ad.tmean(_pair_distances(c, ie, je))
    if len(ic):
        total = total + ad.tmean(_pair_distances(e, ic, jc))
    return total


def _in_sorted(codes, values):
    """Which values occur in the increasing, non-negative array codes."""
    return np.append(codes, -1)[np.searchsorted(codes, values)] == values


def sample_negative_edges(g: Graph, count, seed):
    """Uniform sample of unordered non-adjacent pairs, without replacement,
    as a (count, 2) int64 array of u < v rows in lexicographic order."""
    n = g.n
    capacity = n * (n - 1) // 2 - g.m
    if count > capacity:
        raise CapacityError(f"asked for {count} negative edges, capacity {capacity}")
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
            drawn = uv[:, 0] * n + uv[:, 1]
            new = np.unique(drawn[(uv[:, 0] != uv[:, 1]) & ~_in_sorted(codes, drawn)])
            picked = np.sort(np.concatenate([picked, new[~_in_sorted(picked, new)]]))
    return np.stack([picked // n, picked % n], axis=1)


def suf_loss(h: Tensor, pos_edges, neg_edges) -> Tensor:
    """Link reconstruction: sigmoid(h_i . h_j) scored against edge presence,
    averaged over positive and negative pairs together. Both edge sets are
    (k, 2) arrays of node pairs."""
    if len(pos_edges) == 0 or len(neg_edges) == 0:
        raise UndefinedMetricError("structure loss needs positive and negative edges")
    pairs = np.concatenate([pos_edges, neg_edges])
    a = np.concatenate([np.ones(len(pos_edges)), np.zeros(len(neg_edges))])
    a = a.reshape(-1, 1)
    hi = ad.gather_rows(h, pairs[:, 0])
    hj = ad.gather_rows(h, pairs[:, 1])
    logits = ad.tsum(ad.mul(hi, hj), axis=1, keepdims=True)
    p = ad.clamp(ad.sigmoid(logits), PROB_FLOOR, 1.0 - PROB_FLOOR)
    ll = ad.mul(a, ad.tlog(p)) + ad.mul(1.0 - a, ad.tlog(1.0 - p))
    return -(ad.tsum(ll) * (1.0 / pairs.shape[0]))


def _tvmf(cos, kappa):
    """Bounded angular similarity phi = (1 + cos) / (1 + kappa*(1 - cos)) - 1,
    elementwise over an array of cosines, and its slope dphi/dcos =
    (1 + 2 kappa) / (1 + kappa*(1 - cos))^2."""
    den = (1.0 - cos) * kappa + 1.0
    phi = (cos + 1.0) / den - 1.0
    den *= den
    return phi, (1.0 + 2.0 * kappa) / den


def _sc_value_and_grad(u, y, kappa):
    """Supervised t-vMF contrast over unit (or zero) rows u with labels y,
    and its gradient with respect to u, one block of anchor rows at a time.
    The rows come sorted by label, so each class's columns are one
    contiguous slice.

    With phi = tvmf(u u^T), D_i = sum_{j != i} exp(phi_ij) and P(i) the other
    rows of i's class, the loss is sum over rows with |P(i)| > 0 of
    log D_i - mean_{j in P(i)} phi_ij, and dL/dphi_ij = exp(phi_ij) / D_i -
    [j in P(i)] / |P(i)| for those rows (0 for the rest). Memory stays
    O(block * n).
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
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        diag = (np.arange(stop - start), np.arange(start, stop))
        phi, slope = _tvmf(u[start:stop] @ u.T, kappa)
        g = np.exp(phi)
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


def sc_loss(c: Tensor, labels, participant_mask, kappa) -> Tensor:
    """Supervised contrast on content rows: each participating node is pulled
    toward same-label participants and pushed from the rest, with the t-vMF
    similarity in place of the dot product. Nodes without positives are
    skipped; if no node has a positive the loss is undefined.

    The contrast is one tape node over the normalised participant rows; its
    value and gradient come from a blockwise closed form."""
    mask = np.asarray(participant_mask, dtype=bool)
    idx = np.where(mask)[0]
    if len(idx) < 2:
        raise UndefinedMetricError("supervised contrast needs >= 2 participating nodes")
    y = np.asarray(labels).reshape(-1)[idx]
    by_label = np.argsort(y, kind="stable")
    u = ad.row_l2_normalize(ad.gather_rows(c, idx[by_label]))
    value, grad = _sc_value_and_grad(u.value, y[by_label], float(kappa))
    return ad.scalar_with_grad(u, value, grad)


def env_loss(e: Tensor, sensitive, k_prime) -> Tensor:
    """Environmental separation: minus the mean distance from each node to its
    K' nearest opposite-group neighbors in the environment block."""
    if k_prime < 1:
        raise ValueError("K_prime must be >= 1")
    s = np.asarray(sensitive).reshape(-1)
    n = len(s)
    if (s == s[0]).all():
        raise UndefinedMetricError("environment loss needs both sensitive groups")
    cells = [(np.flatnonzero(s == group), np.flatnonzero(s != group))
             for group in np.unique(s)]
    counts, partners = _nearest(e.value, cells, k_prime)
    anchors = np.repeat(np.arange(n, dtype=np.int64), counts)
    w = (1.0 / (n * counts[anchors])).reshape(-1, 1)
    dist = ad.row_l2_norm(ad.gather_rows(e, anchors) - ad.gather_rows(e, partners))
    return -ad.tsum(ad.mul(w, dist))


@dataclass
class LossParts:
    """The five component values; absent terms stay None."""

    pred: Tensor
    inv: Tensor | None = None
    suf: Tensor | None = None
    sc: Tensor | None = None
    env: Tensor | None = None

    def values(self):
        return {name: (None if t is None else float(t.value))
                for name, t in (("pred", self.pred), ("inv", self.inv),
                                ("suf", self.suf), ("sc", self.sc),
                                ("env", self.env))}


def total_loss(parts: LossParts, weights: LossWeights) -> Tensor:
    """pred + alpha*inv + beta*suf + omega*sc + eta*env over present parts."""
    terms = [(1.0, parts.pred), (weights.alpha, parts.inv),
             (weights.beta, parts.suf), (weights.omega, parts.sc),
             (weights.eta, parts.env)]
    total = None
    for coeff, term in terms:
        if term is None:
            continue
        if not np.isfinite(term.value):
            raise NumericError("non-finite loss component")
        piece = ad.mul(term, float(coeff))
        total = piece if total is None else total + piece
    return total
