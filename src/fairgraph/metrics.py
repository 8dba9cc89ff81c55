"""Utility and group-fairness metrics, reported as percentages, plus the
accuracy/fairness selection score used to pick epochs and grid cells.

Undefined metrics raise typed errors instead of returning zero — a silent
zero would read as perfect fairness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import UndefinedMetricError


def _as_int(x):
    return np.asarray(x).reshape(-1).astype(np.int64)


def hard_labels(probs):
    """Threshold at 0.5; the tie at exactly 0.5 goes to class 1."""
    return (np.asarray(probs).reshape(-1) >= 0.5).astype(np.int64)


def stat_parity(pred_hard, sensitive) -> float:
    """|P(pred=1 | s=0) - P(pred=1 | s=1)| * 100."""
    pred, s = _as_int(pred_hard), _as_int(sensitive)
    rates = []
    for group in (0, 1):
        members = pred[s == group]
        if len(members) == 0:
            raise UndefinedMetricError(f"sensitive group {group} is empty")
        rates.append(members.mean())
    return float(abs(rates[0] - rates[1]) * 100.0)


def equal_opportunity(pred_hard, labels, sensitive) -> float:
    """|TPR(s=0) - TPR(s=1)| * 100."""
    pred, y, s = _as_int(pred_hard), _as_int(labels), _as_int(sensitive)
    tprs = []
    for group in (0, 1):
        members = pred[(s == group) & (y == 1)]
        if len(members) == 0:
            raise UndefinedMetricError(
                f"equal opportunity is undefined: group {group} has no positive-class nodes")
        tprs.append(members.mean())
    return float(abs(tprs[0] - tprs[1]) * 100.0)


def balanced_accuracy(pred_hard, labels) -> float:
    """(TPR + TNR) / 2 * 100."""
    pred, y = _as_int(pred_hard), _as_int(labels)
    if not ((y == 0).any() and (y == 1).any()):
        raise UndefinedMetricError("balanced accuracy needs both classes in the truth")
    tpr = pred[y == 1].mean()
    tnr = 1.0 - pred[y == 0].mean()
    return float((tpr + tnr) / 2.0 * 100.0)


def _average_ranks(x):
    """1-based ranks of x, each run of equal values given the mean position
    of the run; every rank is NaN when any value is NaN. The same numbers,
    bit for bit, as scipy.stats.rankdata(x, method="average")."""
    if np.isnan(x).any():
        return np.full(len(x), np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[start[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
    return ranks


def roc_auc(scores, labels) -> float:
    """Mann-Whitney rank AUC with average ranks on ties, * 100."""
    y = _as_int(labels)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes in the truth")
    ranks = _average_ranks(scores)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg) * 100.0)


def f1_score(pred_hard, labels) -> float:
    """Harmonic mean of precision and recall for class 1, * 100."""
    pred, y = _as_int(pred_hard), _as_int(labels)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom * 100.0


def selection_score(bacc, delta_sp, delta_eo) -> float:
    """BACC + 0.5*[(100 - delta_EO) + (100 - delta_SP)]."""
    return float(bacc + 0.5 * ((100.0 - delta_eo) + (100.0 - delta_sp)))


# the metrics a report summarizes, `aggregate_results` averages and
# `fairgraph evaluate` compares with a stored report, in output order
SUMMARY_METRICS = ("bacc", "auc", "f1", "delta_sp", "delta_eo", "score")


@dataclass(frozen=True)
class MetricsReport:
    bacc: float
    auc: float
    f1: float
    delta_sp: float
    delta_eo: float
    score: float
    cells: dict

    def to_dict(self):
        return asdict(self)


def _confusion_cells(pred, y, s):
    cells = {}
    for group in (0, 1):
        for label in (0, 1):
            for out in (0, 1):
                key = f"s{group}_y{label}_p{out}"
                cells[key] = int(((s == group) & (y == label) & (pred == out)).sum())
    return cells


def evaluate_predictions(probs, labels, sensitive, mask=None) -> MetricsReport:
    """Full report over the masked nodes (all nodes when mask is None),
    every one of which must carry a class label (not -1)."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    y = _as_int(labels)
    s = _as_int(sensitive)
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        probs, y, s = probs[keep], y[keep], s[keep]
    if len(y) == 0:
        raise UndefinedMetricError("empty evaluation mask")
    if (y < 0).any():
        raise UndefinedMetricError(
            f"{int((y < 0).sum())} evaluated nodes have no class label")
    pred = hard_labels(probs)
    bacc = balanced_accuracy(pred, y)
    d_sp = stat_parity(pred, s)
    d_eo = equal_opportunity(pred, y, s)
    return MetricsReport(
        bacc=bacc,
        auc=roc_auc(probs, y),
        f1=f1_score(pred, y),
        delta_sp=d_sp,
        delta_eo=d_eo,
        score=selection_score(bacc, d_sp, d_eo),
        cells=_confusion_cells(pred, y, s),
    )
