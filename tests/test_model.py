"""Encoder/predictor forward semantics, initialization, and checkpoints."""

import json
import os

import numpy as np
import pytest

from fairgraph.autodiff import NeighborAggregator
from fairgraph.errors import ConfigError, ShapeError
from fairgraph.graph import Graph
from fairgraph.metrics import hard_labels
from fairgraph.model import (
    feature_stats,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from oracles import encode_features


def ring(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def test_init_deterministic_in_seed():
    a = init_params(7, 16, 16, seed=0)
    b = init_params(7, 16, 16, seed=0)
    for x, y in zip(a.arrays(), b.arrays(), strict=True):
        assert np.array_equal(x, y)
    c = init_params(7, 16, 16, seed=1)
    assert not np.array_equal(a.w1, c.w1)


def test_init_shapes_and_bounds():
    params = init_params(7, 16, 16, seed=0)
    assert params.w1.shape == (14, 16)
    assert params.w2.shape == (32, 32)  # hidden=16, C and E each d_c=16 wide
    assert params.w.shape == (16, 1)
    assert np.array_equal(params.b1, np.zeros(16))
    limit = np.sqrt(6.0 / (14 + 16))
    assert np.abs(params.w1).max() <= limit


def test_zero_weights_give_broadcast_bias():
    params = init_params(3, 4, 2, seed=0)
    for a in (params.w1, params.w2):
        a[...] = 0.0
    params.b2[...] = np.arange(4, dtype=float)
    agg = NeighborAggregator(ring(5))
    latent = encode_features(params, agg, np.random.default_rng(0).standard_normal((5, 3)))
    assert np.array_equal(latent.h, np.tile(np.arange(4.0), (5, 1)))


def test_isolated_node_depends_on_self_only():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])  # node 3 isolated
    params = init_params(3, 4, 2, seed=3)
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((4, 3))
    x2 = x1.copy()
    x2[:3] += rng.standard_normal((3, 3))  # perturb everyone but node 3
    h1 = encode_features(params, NeighborAggregator(g), x1).h
    h2 = encode_features(params, NeighborAggregator(g), x2).h
    assert np.array_equal(h1[3], h2[3])
    assert not np.array_equal(h1[:3], h2[:3])


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    g = ring(8)
    x = rng.standard_normal((8, 3))
    params = init_params(3, 4, 2, seed=2)
    perm = rng.permutation(8)
    g2 = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges])
    x2 = np.empty_like(x)
    x2[perm] = x
    h1 = encode_features(params, NeighborAggregator(g), x).h
    h2 = encode_features(params, NeighborAggregator(g2), x2).h
    assert np.allclose(h2[perm], h1, atol=1e-12)


def test_c_and_e_are_exact_column_blocks():
    params = init_params(3, 4, 2, seed=4)
    agg = NeighborAggregator(ring(6))
    latent = encode_features(params, agg, np.random.default_rng(2).standard_normal((6, 3)))
    assert np.array_equal(latent.h[:, :2], latent.c)
    assert np.array_equal(latent.h[:, 2:], latent.e)
    assert latent.c.base is latent.h and latent.e.base is latent.h


def test_predict_tie_rule_and_saturation():
    params = init_params(3, 4, 2, seed=0)
    params.w[...] = 0.0
    params.b[...] = 0.0
    c = np.random.default_rng(3).standard_normal((5, 2))
    probs = predict(params, c)
    assert np.all(probs == 0.5)
    assert hard_labels(probs).tolist() == [1, 1, 1, 1, 1]
    params.b[...] = 40.0
    assert np.all(predict(params, c) > 1.0 - 1e-12)


def test_encode_shape_mismatch():
    params = init_params(3, 4, 2, seed=0)
    with pytest.raises(ShapeError):
        encode_features(params, NeighborAggregator(ring(5)), np.zeros((5, 7)))


def test_encode_standardizes_every_row_with_its_statistics():
    g = ring(7)
    x = np.random.default_rng(5).standard_normal((7, 3)) * 4.0 + 2.0
    train = np.array([True, True, True, False, True, False, False])
    params = init_params(3, 4, 2, seed=1)
    raw = encode_features(params, NeighborAggregator(g), x)  # identity statistics
    assert np.array_equal(raw.z1[:, :3], x)
    params.feature_mean, params.feature_std = feature_stats(x, train)
    got = encode_features(params, NeighborAggregator(g), x)
    params.feature_mean, params.feature_std = np.zeros(3), np.ones(3)
    want = encode_features(params, NeighborAggregator(g),
                  (x - x[train].mean(axis=0)) / x[train].std(axis=0))
    for name in ("h", "z1", "z2", "active"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # the non-training rows are standardized too, with the training rows' mean
    assert not np.allclose(got.z1[~train, :3], x[~train])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(5, 8, 4, seed=9)
    rng = np.random.default_rng(4)
    params.feature_mean = rng.standard_normal(5)
    params.feature_std = rng.uniform(0.5, 2.0, 5)
    g = ring(7)
    x = rng.standard_normal((7, 5))
    probs_before = predict(params, encode_features(params, NeighborAggregator(g), x).c)
    path = tmp_path / "params.json"
    save_checkpoint(path, params, meta={"note": "test"})
    assert list(json.loads(path.read_text())["meta"]) == \
        ["feature_mean", "feature_std", "note"]
    params2, meta = load_checkpoint(path)
    assert meta["note"] == "test"
    for a, b in zip(params.arrays() + [params.feature_mean, params.feature_std],
                    params2.arrays() + [params2.feature_mean, params2.feature_std]):
        assert np.array_equal(a, b)
    probs_after = predict(params2, encode_features(params2, NeighborAggregator(g), x).c)
    assert np.array_equal(probs_before, probs_after)


@pytest.mark.parametrize("name, value", [
    ("feature_mean", [0.0, float("nan"), 0.0]), ("feature_mean", [float("inf"), 0.0, 0.0]),
    ("feature_std", [1.0, 0.0, 1.0]), ("feature_std", [1.0, -2.0, 1.0]),
    ("feature_std", [1.0, 1.0, float("inf")]), ("feature_std", [float("nan"), 1.0, 1.0])])
def test_checkpoint_rejects_unusable_feature_statistics(tmp_path, name, value):
    params = init_params(3, 4, 2, seed=0)
    setattr(params, name, np.array(value))
    path = tmp_path / "params.json"
    save_checkpoint(path, params)
    with pytest.raises(ConfigError, match="feature statistics"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_old_file(tmp_path):
    params = init_params(5, 8, 4, seed=9)
    path = tmp_path / "params.json"
    save_checkpoint(path, params, meta={"note": "old"})
    before = path.read_bytes()
    # the meta block is serialised last, after the weights
    with pytest.raises(TypeError):
        save_checkpoint(path, params, meta={"note": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["params.json"]


def test_forward_deterministic():
    params = init_params(4, 6, 3, seed=6)
    g = ring(9)
    agg = NeighborAggregator(g)
    x = np.random.default_rng(5).standard_normal((9, 4))
    a = predict(params, encode_features(params, agg, x).c)
    b = predict(params, encode_features(params, agg, x).c)
    assert np.array_equal(a, b)
