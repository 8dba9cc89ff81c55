"""Undirected simple graphs, the four-way edge taxonomy, homophily ratios,
fairness-aware edge removal, and the exact ratio-shift identities.

Edges are stored once as canonical (u, v) pairs with u < v; the adjacency
index is the symmetric closure. Censuses are kept in exact integers and
ratios become floats only at the API boundary, so the closed-form shift
identities hold to machine precision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
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


def _canonical(u, v):
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on nodes 0..n-1."""

    n: int
    edges: tuple  # tuple of (u, v) with u < v, lexicographically sorted
    adjacency: tuple  # per-node tuple of sorted neighbor ids

    @classmethod
    def from_edges(cls, n, pairs):
        """Build a graph, rejecting self-loops, duplicates and bad endpoints."""
        canon = []
        seen = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
            e = _canonical(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        adj = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        return cls(n=n, edges=tuple(canon), adjacency=tuple(tuple(sorted(a)) for a in adj))

    @classmethod
    def from_edges_dedup(cls, n, pairs):
        """Like from_edges but drops self-loops and duplicate/reversed pairs.

        Returns (graph, dropped_count).
        """
        seen = set()
        kept = []
        dropped = 0
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                dropped += 1
                continue
            e = _canonical(u, v)
            if e in seen:
                dropped += 1
                continue
            seen.add(e)
            kept.append(e)
        if dropped:
            log.warning("dropped %d duplicate/reversed/self-loop edge lines", dropped)
        return cls.from_edges(n, kept), dropped

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        a = self.adjacency[u]
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(a) and a[lo] == v

    def remove_edges(self, subset):
        """Return a new graph without the given edges (canonical pairs)."""
        drop = {_canonical(u, v) for u, v in subset}
        missing = drop.difference(self.edges)
        if missing:
            raise ValueError(f"edges not in graph: {sorted(missing)[:3]}")
        return Graph.from_edges(self.n, [e for e in self.edges if e not in drop])

    def edge_array(self):
        """Edges as an (m, 2) int array (empty graphs give shape (0, 2))."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)


def load_edge_list(path):
    """Parse a two-column edge file (whitespace- or comma-separated).

    Returns a list of (u, v) int pairs; deduplication happens in
    Graph.from_edges_dedup so the caller sees the warning count.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            pairs.append((int(float(parts[0])), int(float(parts[1]))))
    return pairs


@dataclass(frozen=True)
class NodeLabels:
    """Per-node binary class labels (partially observed), sensitive attributes
    (fully observed) and pseudo-labels. Unknown entries are -1."""

    class_label: np.ndarray
    sensitive: np.ndarray
    pseudo_label: np.ndarray

    def __post_init__(self):
        for name in ("class_label", "sensitive", "pseudo_label"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.class_label.shape[0]
        if self.sensitive.shape != (n,) or self.pseudo_label.shape != (n,):
            raise ValueError("label arrays must share one length")
        if not np.isin(self.sensitive, (0, 1)).all():
            raise ValueError("sensitive attribute must be 0/1 for every node")
        for name in ("class_label", "pseudo_label"):
            if not np.isin(getattr(self, name), (UNKNOWN, 0, 1)).all():
                raise ValueError(f"{name} values must be in {{-1, 0, 1}}")

    @classmethod
    def create(cls, sensitive, class_label=None, pseudo_label=None):
        n = len(sensitive)
        if class_label is None:
            class_label = np.full(n, UNKNOWN)
        if pseudo_label is None:
            pseudo_label = np.full(n, UNKNOWN)
        return cls(class_label=np.asarray(class_label), sensitive=np.asarray(sensitive),
                   pseudo_label=np.asarray(pseudo_label))

    @property
    def n(self):
        return self.class_label.shape[0]

    def labeled_mask(self):
        return self.class_label != UNKNOWN

    def effective_label(self):
        """Ground-truth class label where observed, pseudo-label elsewhere."""
        eff = np.where(self.class_label != UNKNOWN, self.class_label, self.pseudo_label)
        if (eff == UNKNOWN).any():
            missing = int((eff == UNKNOWN).sum())
            raise ValueError(f"{missing} nodes have neither class label nor pseudo-label")
        return eff

    def with_pseudo(self, pseudo):
        """New labels with the given pseudo-labels (ground truth retained)."""
        pseudo = np.asarray(pseudo, dtype=np.int64)
        merged = np.where(self.class_label != UNKNOWN, self.class_label, pseudo)
        return NodeLabels(class_label=self.class_label, sensitive=self.sensitive,
                          pseudo_label=merged)


class EdgeType(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


def classify_edge(y_u, y_v, s_u, s_v):
    """Edge taxonomy from endpoint labels: I same/same, II same class only,
    III same sensitive only, IV neither."""
    for val in (y_u, y_v, s_u, s_v):
        if val not in (0, 1):
            raise ValueError("labels must be binary")
    if y_u == y_v:
        return EdgeType.I if s_u == s_v else EdgeType.II
    return EdgeType.III if s_u == s_v else EdgeType.IV


@dataclass(frozen=True)
class EdgeCensus:
    """Exact per-type edge counts for one labelling of a graph."""

    count_i: int
    count_ii: int
    count_iii: int
    count_iv: int

    @property
    def m(self):
        return self.count_i + self.count_ii + self.count_iii + self.count_iv

    @property
    def n_c(self):
        return self.count_i + self.count_ii

    @property
    def n_s(self):
        return self.count_i + self.count_iii

    def count(self, t: EdgeType):
        return {EdgeType.I: self.count_i, EdgeType.II: self.count_ii,
                EdgeType.III: self.count_iii, EdgeType.IV: self.count_iv}[t]

    def to_dict(self):
        return {"m": self.m, "n_c": self.n_c, "n_s": self.n_s,
                "type_i": self.count_i, "type_ii": self.count_ii,
                "type_iii": self.count_iii, "type_iv": self.count_iv}


def edge_census(g: Graph, labels: NodeLabels) -> EdgeCensus:
    """Count edges of each type under the effective labels."""
    y = labels.effective_label()
    s = labels.sensitive
    ea = g.edge_array()
    same_y = y[ea[:, 0]] == y[ea[:, 1]]
    same_s = s[ea[:, 0]] == s[ea[:, 1]]
    return EdgeCensus(
        count_i=int(np.sum(same_y & same_s)),
        count_ii=int(np.sum(same_y & ~same_s)),
        count_iii=int(np.sum(~same_y & same_s)),
        count_iv=int(np.sum(~same_y & ~same_s)),
    )


def homophily_ratios(g: Graph, labels: NodeLabels):
    """(hr_c, hr_s): fractions of edges joining equal class labels / equal
    sensitive attributes."""
    if g.m == 0:
        raise UndefinedRatioError("homophily ratios are undefined on an empty edge set")
    c = edge_census(g, labels)
    return c.n_c / c.m, c.n_s / c.m


@dataclass(frozen=True)
class EditReport:
    """What fairness-aware editing did to a graph. `skipped`: the mode does
    no editing; `degenerate`: editing would have removed every edge, so the
    run trained on the unedited graph and nothing was removed."""

    removed_edges: tuple
    census_before: EdgeCensus
    census_after: EdgeCensus
    hr_c_before: float
    hr_s_before: float
    hr_c_after: float
    hr_s_after: float
    skipped: bool = False
    degenerate: bool = False

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


def skipped_edit_report(g: Graph, labels: NodeLabels) -> EditReport:
    """An EditReport that removes nothing, for runs where editing is
    disabled by the mode (`run_single` also uses it, marked degenerate, when
    an edit would remove every edge)."""
    census = edge_census(g, labels)
    hr_c, hr_s = homophily_ratios(g, labels)
    return EditReport(removed_edges=(), census_before=census, census_after=census,
                      hr_c_before=hr_c, hr_s_before=hr_s, hr_c_after=hr_c,
                      hr_s_after=hr_s, skipped=True)


def fair_edge_remove(g: Graph, labels: NodeLabels):
    """Remove every Type III edge (labels differ, sensitive equal) in one pass.

    Returns (edited_graph, report). Raises DegenerateEditError when editing
    would leave an empty graph; the error carries the edited graph and report
    so the caller can decide a fallback.
    """
    if g.m == 0:
        raise UndefinedRatioError("cannot edit an empty graph")
    y = labels.effective_label()
    s = labels.sensitive
    ea = g.edge_array()
    is_iii = (y[ea[:, 0]] != y[ea[:, 1]]) & (s[ea[:, 0]] == s[ea[:, 1]])
    removed = tuple(map(tuple, ea[is_iii].tolist()))
    kept = [e for e, r in zip(g.edges, is_iii) if not r]
    census_before = edge_census(g, labels)
    hr_c_b = census_before.n_c / census_before.m
    hr_s_b = census_before.n_s / census_before.m
    edited = Graph.from_edges(g.n, kept)
    if edited.m == 0:
        census_after = EdgeCensus(0, 0, 0, 0)
        report = EditReport(removed_edges=removed, census_before=census_before,
                            census_after=census_after, hr_c_before=hr_c_b,
                            hr_s_before=hr_s_b, hr_c_after=float("nan"),
                            hr_s_after=float("nan"))
        raise DegenerateEditError("editing removed every edge", graph=edited, report=report)
    census_after = edge_census(edited, labels)
    report = EditReport(removed_edges=removed, census_before=census_before,
                        census_after=census_after, hr_c_before=hr_c_b, hr_s_before=hr_s_b,
                        hr_c_after=census_after.n_c / census_after.m,
                        hr_s_after=census_after.n_s / census_after.m)
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
        raise ValueError(f"census has no edge of type {t.value}")
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
