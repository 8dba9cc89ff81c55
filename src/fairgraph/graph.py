"""Undirected simple graphs, the four-way edge taxonomy, homophily ratios,
fairness-aware edge removal, and the exact ratio-shift identities.

Edges are stored once, as an (m, 2) int64 array of canonical (u, v) rows
with u < v in lexicographic order. Censuses are kept in exact integers and
ratios become floats only at the API boundary, so the closed-form shift
identities hold to machine precision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateEditError,
    InfeasibleError,
    InvalidTargetError,
    UndefinedRatioError,
)

log = logging.getLogger(__name__)

UNKNOWN = -1


def _canonical_pairs(n, pairs, drop_self_loops=False):
    """Node pairs as a new (k, 2) int64 array, u < v in every row, in input
    order. Ids that are not integers (bools, floats, strings, None),
    self-loops (unless dropped) and ids outside 0..n-1 raise ValueError,
    before any caller encodes a pair as u*n + v."""
    arr = np.array(pairs)
    if arr.size == 0:
        return arr.astype(np.int64).reshape(0, 2)
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise ValueError(f"node ids must be int64 integers, got {arr.dtype} values")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {arr.shape}")
    # np.array promotes a bool among integers to 0 or 1; only a Python
    # sequence can mix them
    if not isinstance(pairs, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for pair in pairs for v in pair):
        raise ValueError("node ids must be int64 integers, got bool values")
    arr.sort(axis=1)
    loops = arr[:, 0] == arr[:, 1]
    if drop_self_loops:
        arr = arr[~loops]
    elif np.count_nonzero(loops):
        raise ValueError(f"self-loop at node {arr[loops][0, 0]}")
    # one comparison checks both ends: negative ids wrap to 2**63 and above
    outside = arr.view(np.uint64) >= n
    if np.count_nonzero(outside):
        u, v = arr[outside.any(axis=1)][0].tolist()
        raise ValueError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
    return arr


def pair_codes(n, pairs):
    """u*n + v for each row of a canonical (k, 2) pair array: the codes
    increase exactly when the rows are in lexicographic order."""
    return pairs[:, 0] * n + pairs[:, 1]


def sorted_unique(values):
    """The distinct values of a 1-d array in increasing order, as
    np.unique returns them, from one sort and a neighbour comparison;
    numpy 2 sends np.unique on integers through a hash table that is
    many times slower on large arrays."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def decode_pairs(n, k):
    """The k-th pairs (u, v), u < v, of nodes 0..n-1 in lexicographic order,
    for an integer array k; returns a (len(k), 2) int64 array."""
    u = np.arange(n, dtype=np.int64)
    starts = u * (2 * n - u - 1) // 2  # index of the first pair in row u
    row = np.searchsorted(starts, k, side="right") - 1
    return np.stack([row, k - starts[row] + row + 1], axis=1)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph on nodes 0..n-1.

    `edge_array` is a read-only (m, 2) int64 array with u < v in every row
    and the rows in lexicographic order, so the codes u*n + v are strictly
    increasing. Build graphs with `from_edges` or `from_edges_dedup`; the
    edits keep rows of an already canonical array.
    """

    n: int
    edge_array: np.ndarray

    def __post_init__(self):
        self.edge_array.setflags(write=False)

    @classmethod
    def from_edges(cls, n, pairs):
        """Build a graph, rejecting self-loops, duplicates and bad endpoints."""
        arr = _canonical_pairs(n, pairs)
        codes = pair_codes(n, arr)
        order = codes.argsort()
        dup = codes[order[1:]] == codes[order[:-1]]
        if np.count_nonzero(dup):
            raise ValueError(f"duplicate edge {tuple(arr[order[1:][dup][0]].tolist())}")
        return cls(n=n, edge_array=arr[order])

    @classmethod
    def from_edges_dedup(cls, n, pairs):
        """Like from_edges but drops self-loops and duplicate/reversed pairs.

        Returns (graph, dropped_count).
        """
        arr = _canonical_pairs(n, pairs, drop_self_loops=True)
        codes = sorted_unique(pair_codes(n, arr))
        dropped = len(pairs) - len(codes)
        if dropped:
            log.warning("dropped %d duplicate/reversed/self-loop edge lines", dropped)
        return cls(n=n, edge_array=np.stack([codes // n, codes % n], axis=1)), dropped

    @property
    def m(self):
        return self.edge_array.shape[0]

    @property
    def edges(self):
        """The edges as a tuple of (u, v) tuples, in `edge_array` order."""
        u, v = self.edge_array.T
        return tuple(zip(u.tolist(), v.tolist()))

    def remove_edges(self, subset):
        """Return a new graph without the given edges, each named by its
        endpoints in either order. A self-loop, an id outside 0..n-1 or a
        pair that is not an edge raises ValueError."""
        codes = pair_codes(self.n, self.edge_array)
        drop = pair_codes(self.n, _canonical_pairs(self.n, subset))
        pos = codes.searchsorted(drop)
        missing = np.append(codes, -1)[pos] != drop
        if np.count_nonzero(missing):
            absent = np.unique(drop[missing])[:3]
            raise ValueError(f"edges not in graph: {[divmod(int(c), self.n) for c in absent]}")
        keep = np.ones(self.m, dtype=bool)
        keep[pos] = False
        return Graph(n=self.n, edge_array=self.edge_array[keep])


@dataclass(frozen=True)
class NodeLabels:
    """Per-node binary class labels (unknown entries are -1) and sensitive
    attributes (known for every node). A complete labelling, which the edge
    taxonomy needs, is `with_pseudo` of a partial one."""

    class_label: np.ndarray
    sensitive: np.ndarray

    def __post_init__(self):
        for name in ("class_label", "sensitive"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.sensitive.shape != (self.n,):
            raise ValueError("label arrays must share one length")
        if not ((self.sensitive >= 0) & (self.sensitive <= 1)).all():
            raise ValueError("sensitive attribute must be 0/1 for every node")
        if not ((self.class_label >= UNKNOWN) & (self.class_label <= 1)).all():
            raise ValueError("class_label values must be in {-1, 0, 1}")

    @classmethod
    def create(cls, sensitive, class_label=None):
        if class_label is None:
            class_label = np.full(len(sensitive), UNKNOWN)
        return cls(class_label=np.asarray(class_label), sensitive=np.asarray(sensitive))

    @property
    def n(self):
        return self.class_label.shape[0]

    def labeled_mask(self):
        return self.class_label != UNKNOWN

    def with_pseudo(self, pseudo):
        """The labelling completed by `pseudo`: ground truth where it is
        known, the pseudo-label elsewhere."""
        pseudo = np.asarray(pseudo, dtype=np.int64)
        if pseudo.shape != (self.n,):
            raise ValueError(f"need one pseudo-label per node ({self.n}), got shape "
                             f"{pseudo.shape}")
        merged = np.where(self.labeled_mask(), self.class_label, pseudo)
        return NodeLabels(class_label=merged, sensitive=self.sensitive)

    def training_view(self, train_mask):
        """What training may read: ground truth on the `train_mask` nodes,
        UNKNOWN everywhere else."""
        known = np.where(train_mask, self.class_label, UNKNOWN)
        return NodeLabels(class_label=known, sensitive=self.sensitive)


class EdgeType(IntEnum):
    """The four edge types, valued by the code `edge_types` gives them."""
    I = 0
    II = 1
    III = 2
    IV = 3


def classify_edge(y_u, y_v, s_u, s_v):
    """Edge taxonomy from endpoint labels: I same/same, II same class only,
    III same sensitive only, IV neither."""
    if not {y_u, y_v, s_u, s_v} <= {0, 1}:
        raise ValueError("labels must be binary")
    return EdgeType(2 * (y_u != y_v) + (s_u != s_v))


def edge_types(g: Graph, labels: NodeLabels):
    """Each edge's EdgeType code 2·[y_u != y_v] + [s_u != s_v], as an (m,)
    int64 array in `edge_array` order: the only array form of the taxonomy.
    ValueError when some node has no class label."""
    y, s = labels.class_label, labels.sensitive
    missing = int(np.count_nonzero(y == UNKNOWN))
    if missing:
        raise ValueError(f"{missing} nodes have no class label; complete the "
                         "labelling with pseudo-labels first")
    u, v = g.edge_array.T
    return 2 * (y[u] != y[v]) + (s[u] != s[v])


@dataclass(frozen=True)
class EdgeCensus:
    """Exact per-type edge counts for one labelling of a graph."""

    count_i: int
    count_ii: int
    count_iii: int
    count_iv: int

    @classmethod
    def from_types(cls, types):
        """The census of an `edge_types` array."""
        return cls(*np.bincount(types, minlength=len(EdgeType)).tolist())

    @property
    def m(self):
        return self.count_i + self.count_ii + self.count_iii + self.count_iv

    @property
    def n_c(self):
        return self.count_i + self.count_ii

    @property
    def n_s(self):
        return self.count_i + self.count_iii

    # homophily ratios: the shares of edges with equal labels / equal attributes
    hr_c = property(lambda self: self._ratio(self.n_c))
    hr_s = property(lambda self: self._ratio(self.n_s))

    def _ratio(self, count):
        if self.m == 0:
            raise UndefinedRatioError("homophily ratios are undefined on an empty edge set")
        return count / self.m

    def count(self, t: EdgeType):
        return (self.count_i, self.count_ii, self.count_iii, self.count_iv)[t]

    def to_dict(self):
        return {"m": self.m, "n_c": self.n_c, "n_s": self.n_s,
                "type_i": self.count_i, "type_ii": self.count_ii,
                "type_iii": self.count_iii, "type_iv": self.count_iv}


def edge_census(g: Graph, labels: NodeLabels) -> EdgeCensus:
    """Count edges of each type under a complete labelling."""
    return EdgeCensus.from_types(edge_types(g, labels))


def homophily_ratios(g: Graph, labels: NodeLabels):
    """(hr_c, hr_s); an edgeless graph fails before the labelling is checked."""
    if g.m == 0:
        raise UndefinedRatioError("homophily ratios are undefined on an empty edge set")
    c = edge_census(g, labels)
    return c.hr_c, c.hr_s


@dataclass(frozen=True)
class EditReport:
    """What fairness-aware editing did to a graph. `skipped`: the mode does
    no editing; `degenerate`: editing would have removed every edge, so the
    run trained on the unedited graph and nothing was removed. The homophily
    ratios are read off the two censuses."""

    removed_edges: tuple
    census_before: EdgeCensus
    census_after: EdgeCensus
    skipped: bool = False
    degenerate: bool = False

    hr_c_before = property(lambda self: self.census_before.hr_c)
    hr_s_before = property(lambda self: self.census_before.hr_s)
    hr_c_after = property(lambda self: self.census_after.hr_c)
    hr_s_after = property(lambda self: self.census_after.hr_s)

    def to_dict(self):
        return {
            "skipped": self.skipped,
            "degenerate": self.degenerate,
            "removed_count": len(self.removed_edges),
            "removed_edges": [list(e) for e in self.removed_edges],
            "census_before": self.census_before.to_dict(),
            "census_after": self.census_after.to_dict(),
            "hr_c_before": self.hr_c_before,
            "hr_s_before": self.hr_s_before,
            "hr_c_after": self.hr_c_after,
            "hr_s_after": self.hr_s_after,
        }


def fair_edge_remove(g: Graph, labels: NodeLabels):
    """Remove every Type III edge (labels differ, sensitive equal) in one pass.

    Returns (edited_graph, report). Raises DegenerateEditError when editing
    would leave an empty graph; the caller decides the fallback.
    """
    if g.m == 0:
        raise UndefinedRatioError("cannot edit an empty graph")
    types = edge_types(g, labels)
    is_iii = types == EdgeType.III
    if is_iii.all():
        raise DegenerateEditError("editing removed every edge")
    ea = g.edge_array
    edited = Graph(n=g.n, edge_array=ea[~is_iii])
    u, v = ea[is_iii].T
    report = EditReport(removed_edges=tuple(zip(u.tolist(), v.tolist())),
                        census_before=EdgeCensus.from_types(types),
                        census_after=edge_census(edited, labels))
    return edited, report


def predict_ratio_shift(census: EdgeCensus, k: int):
    """Closed-form (delta_hr_c, delta_hr_s) for deleting k Type III edges.

    delta_hr_c = N_c*k / (m*(m-k)) >= 0
    delta_hr_s = k*(N_s-m) / (m*(m-k)) <= 0
    """
    m = census.m
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= m:
        raise ZeroDivisionError(f"k={k} deletions on m={m} edges leaves no denominator")
    if k > census.count_iii:
        raise InfeasibleError(f"only {census.count_iii} Type III edges exist, asked for {k}")
    denom = m * (m - k)
    return census.n_c * k / denom, k * (census.n_s - m) / denom


def _sign(x):
    return (x > 0) - (x < 0)


def single_edge_effect(census: EdgeCensus, t: EdgeType):
    """Signs of (delta_hr_c, delta_hr_s) after deleting one edge of type t.

    Deleting an edge drops m by one; it drops N_c iff the labels agree
    (types I, II) and N_s iff the sensitive attributes agree (types I, III),
    so the numerators over m*(m-1) are N_c-m or N_c, and N_s-m or N_s.
    """
    m = census.m
    if m < 2:
        raise ValueError("single-edge effect needs m >= 2")
    if census.count(t) < 1:
        raise ValueError(f"census has no edge of type {t.name}")
    dc_num = census.n_c - m if t in (EdgeType.I, EdgeType.II) else census.n_c
    ds_num = census.n_s - m if t in (EdgeType.I, EdgeType.III) else census.n_s
    return _sign(dc_num), _sign(ds_num)


def minimal_deletions(census: EdgeCensus, tau_c, tau_s):
    """Smallest number of Type III deletions reaching hr_c >= tau_c and
    hr_s <= tau_s, or InfeasibleError when no budget within the Type III
    supply works. Thresholds are compared in exact rational arithmetic."""
    m = census.m
    if m == 0:
        raise UndefinedRatioError("no edges")
    hr_c = Fraction(census.n_c, m)
    hr_s = Fraction(census.n_s, m)
    tc = Fraction(tau_c)
    ts = Fraction(tau_s)
    if not (hr_c < tc <= 1):
        raise InvalidTargetError(f"tau_c must lie in (hr_c, 1], got {tau_c}")
    if not (0 <= ts < hr_s):
        raise InvalidTargetError(f"tau_s must lie in [0, hr_s), got {tau_s}")
    k_max = min(census.count_iii, m - 1)
    k_c = next((k for k in range(k_max + 1) if Fraction(census.n_c, m - k) >= tc), None)
    k_s = next((k for k in range(k_max + 1) if Fraction(census.n_s - k, m - k) <= ts), None)
    if k_c is None or k_s is None:
        raise InfeasibleError(
            f"targets unreachable with {census.count_iii} Type III edges")
    return max(k_c, k_s)
