"""Utility/fairness metrics against brute-force and hand-count oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairgraph.errors import UndefinedMetricError
from fairgraph.metrics import (
    SUMMARY_METRICS,
    balanced_accuracy,
    equal_opportunity,
    evaluate_predictions,
    f1_score,
    roc_auc,
    selection_score,
    stat_parity,
)
from oracles import auc_by_rankdata


def pairwise_auc_oracle(scores, labels):
    """O(n^2) comparison count with half credit on ties."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg)) * 100.0


def test_stat_parity_examples():
    pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
    sens = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    # rates 0.6 vs 0.2
    assert stat_parity(pred, sens) == pytest.approx(40.0)
    assert stat_parity([1, 0, 1, 0], [0, 0, 1, 1]) == 0.0
    with pytest.raises(UndefinedMetricError):
        stat_parity([1, 0], [0, 0])


def test_stat_parity_rates_60_vs_40():
    pred = [1, 1, 1, 0, 0] + [1, 1, 0, 0, 0]
    sens = [0] * 5 + [1] * 5
    assert stat_parity(pred, sens) == pytest.approx(20.0, abs=1e-12)


def test_equal_opportunity_examples():
    y = [1, 1, 1, 1]
    assert equal_opportunity([1, 1, 1, 1], y, [0, 0, 1, 1]) == 0.0
    assert equal_opportunity([1, 1, 1, 0], y, [0, 0, 1, 1]) == pytest.approx(50.0)
    with pytest.raises(UndefinedMetricError):
        equal_opportunity([1, 0], [1, 0], [0, 1])  # group 1 has no positives


def test_equal_opportunity_hand_confusion_table():
    # 8 nodes: group 0 has 3 positives with 2 hits; group 1 has 2 with 1 hit
    y = [1, 1, 1, 0, 1, 1, 0, 0]
    s = [0, 0, 0, 0, 1, 1, 1, 1]
    pred = [1, 1, 0, 1, 1, 0, 0, 1]
    expected = abs(2 / 3 - 1 / 2) * 100.0
    assert equal_opportunity(pred, y, s) == pytest.approx(expected, abs=1e-12)


def test_perfect_classifier_scores_100():
    y = [0, 1, 0, 1]
    probs = [0.1, 0.9, 0.2, 0.8]
    pred = [0, 1, 0, 1]
    assert balanced_accuracy(pred, y) == 100.0
    assert roc_auc(probs, y) == 100.0
    assert f1_score(pred, y) == 100.0


def test_equal_probabilities_auc_50():
    assert roc_auc([0.4] * 6, [0, 1, 0, 1, 1, 0]) == pytest.approx(50.0)


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=30)
        labels = rng.integers(0, 2, 30)
        if labels.min() == labels.max():
            continue
        assert roc_auc(scores, labels) == pytest.approx(
            pairwise_auc_oracle(scores, labels), abs=1e-10)


# a small pool, so that most draws tie: rounded values, both zeros, both
# infinities
TIED_SCORES = (st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1 / 3,
                                -math.inf, math.inf])
               | st.floats(-2, 2).map(lambda x: round(x, 1)))


@given(st.lists(st.tuples(TIED_SCORES, st.integers(0, 1)), min_size=2, max_size=60)
       .filter(lambda rows: len({y for _, y in rows}) == 2))
def test_roc_auc_matches_rankdata_bit_for_bit(rows):
    scores, labels = zip(*rows)
    assert roc_auc(scores, labels) == auc_by_rankdata(scores, labels)


def test_roc_auc_is_nan_when_a_score_is():
    scores, labels = [0.2, math.nan, 0.7, 0.7], [0, 1, 1, 0]
    assert math.isnan(roc_auc(scores, labels))
    assert math.isnan(auc_by_rankdata(scores, labels))


def test_auc_invariant_to_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(40)
    labels = rng.integers(0, 2, 40)
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-10)
    assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-10)


def test_bacc_equals_accuracy_on_balanced_classes():
    rng = np.random.default_rng(2)
    y = np.array([0, 1] * 15)
    pred = rng.integers(0, 2, 30)
    assert balanced_accuracy(pred, y) == pytest.approx(
        float((pred == y).mean() * 100.0), abs=1e-12)


def test_single_class_truth_errors():
    with pytest.raises(UndefinedMetricError):
        balanced_accuracy([1, 0], [1, 1])
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.2, 0.8], [0, 0])


def test_f1_degenerate_is_zero():
    assert f1_score([0, 0], [0, 0]) == 0.0


def test_fairness_metrics_invariant_to_group_flip():
    rng = np.random.default_rng(3)
    pred = rng.integers(0, 2, 40)
    y = rng.integers(0, 2, 40)
    s = rng.integers(0, 2, 40)
    while min(((s == 0) & (y == 1)).sum(), ((s == 1) & (y == 1)).sum()) == 0:
        s = rng.integers(0, 2, 40)
    assert stat_parity(pred, s) == pytest.approx(stat_parity(pred, 1 - s), abs=1e-12)
    assert equal_opportunity(pred, y, s) == pytest.approx(
        equal_opportunity(pred, y, 1 - s), abs=1e-12)


def test_metrics_invariant_to_permutation():
    rng = np.random.default_rng(4)
    probs = rng.uniform(size=30)
    y = rng.integers(0, 2, 30)
    s = rng.integers(0, 2, 30)
    while min(((s == 0) & (y == 1)).sum(), ((s == 1) & (y == 1)).sum()) == 0:
        s = rng.integers(0, 2, 30)
    perm = rng.permutation(30)
    a = evaluate_predictions(probs, y, s)
    b = evaluate_predictions(probs[perm], y[perm], s[perm])
    for name in ("bacc", "auc", "f1", "delta_sp", "delta_eo", "score"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)


def test_selection_score_examples():
    # frozen from the score formula on the reported German numbers
    assert selection_score(60.02, 2.86, 3.39) == pytest.approx(156.895, abs=1e-9)
    assert selection_score(100.0, 0.0, 0.0) == 200.0
    assert selection_score(50.0, 100.0, 100.0) == 50.0


def test_report_fields_and_cells():
    probs = [0.9, 0.2, 0.7, 0.4]
    y = [1, 0, 1, 0]
    s = [0, 0, 1, 1]
    report = evaluate_predictions(probs, y, s)
    doc = report.to_dict()
    assert set(doc) == {*SUMMARY_METRICS, "cells"}
    assert sum(report.cells.values()) == 4
    assert report.cells["s0_y1_p1"] == 1
    assert report.score == pytest.approx(
        selection_score(report.bacc, report.delta_sp, report.delta_eo))


def test_mask_with_unlabelled_nodes_is_undefined():
    # the -1 of an unknown label would enter the AUC ranking and the dSP
    # groups: these 8 nodes would read AUC 100.0 and dSP 26.7, where their 6
    # labelled ones read 66.7 and 33.3
    probs = np.array([0.9, 0.2, 0.7, 0.4, 0.6, 0.1, 0.8, 0.3])
    y = np.array([1, 0, 1, 0, 0, 1, -1, -1])
    s = np.array([0, 0, 1, 1, 0, 1, 1, 1])
    labelled = y >= 0
    report = evaluate_predictions(probs, y, s, mask=labelled)
    assert (report.auc, report.delta_sp) == pytest.approx((200 / 3, 100 / 3))
    with pytest.raises(UndefinedMetricError, match="2 evaluated nodes have no class label"):
        evaluate_predictions(probs, y, s)
    with pytest.raises(UndefinedMetricError, match="1 evaluated nodes have no class label"):
        evaluate_predictions(probs, y, s, mask=labelled | (np.arange(8) == 6))
