"""Split protocol, pre-training, phase gating, trainer invariants, grid."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fairgraph.autodiff import NeighborAggregator
from fairgraph.data import SynthConfig, synth_generate
from fairgraph import autodiff as ad
from fairgraph import losses, pipeline
from fairgraph.errors import (
    ConfigError,
    DatasetParseError,
    DivergenceError,
    UndefinedMetricError,
    UndefinedRatioError,
)
from fairgraph.graph import Graph, NodeLabels, homophily_ratios
from fairgraph.losses import LossWeights
from fairgraph.metrics import selection_score
from fairgraph.pipeline import (
    TrainConfig,
    aggregate_results,
    grid_search,
    phase_one,
    pretrain,
    run_experiment,
    run_phase1,
    run_single,
    split_dataset,
)
from fairgraph.seeding import derive_seed


def toy_dataset(n=160, seed=2, **kw):
    params = dict(n=n, target_hr_c=0.55, target_hr_s=0.85, mean_degree=8,
                  class_signal=1.5, sensitive_signal=0.8, seed=seed)
    params.update(kw)
    return synth_generate(SynthConfig(**params))


def quick_config(**kw):
    defaults = dict(
        weights=LossWeights(alpha=0.5, beta=1.0, gamma=0.5, omega=0.3,
                            eta=0.09, k=3, k_prime=3),
        lr=0.05, T_pre=30, T_train=15, seeds=(0,), mode="HSCCAF")
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# seeds and splits

def test_derive_seed_stable_and_labeled():
    assert derive_seed(1, "split") == derive_seed(1, "split")
    assert derive_seed(1, "split") != derive_seed(1, "init")
    assert derive_seed(1, "split") != derive_seed(2, "split")


def test_split_sizes_and_disjointness():
    labeled = np.arange(100)
    splits = split_dataset(100, labeled, (0.5, 0.25, 0.25), seed=0)
    assert splits.train.sum() == 50
    assert splits.val.sum() == 25
    assert splits.test.sum() == 25
    assert not np.any(splits.train & splits.val)
    assert not np.any(splits.train & splits.test)
    assert not np.any(splits.val & splits.test)


def test_split_deterministic_and_respects_labeled_set():
    labeled = np.array([3, 5, 8, 13, 21, 34, 55, 89])
    a = split_dataset(100, labeled, (0.5, 0.25, 0.25), seed=7)
    b = split_dataset(100, labeled, (0.5, 0.25, 0.25), seed=7)
    assert np.array_equal(a.train, b.train)
    everyone = a.train | a.val | a.test
    assert set(np.where(everyone)[0]) == set(labeled.tolist())


def test_split_errors():
    with pytest.raises(ConfigError):
        split_dataset(10, np.arange(10), (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split_dataset(10, np.arange(2), (0.9, 0.05, 0.05), seed=0)


# ---------------------------------------------------------------------------
# config plumbing

def test_config_round_trip_and_validation():
    cfg = quick_config()
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.config_hash() == TrainConfig.from_dict(cfg.to_dict()).config_hash()
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        TrainConfig(T_train=500)
    with pytest.raises(ConfigError):
        TrainConfig(mode="nope")
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    # eight weights and ten fields are all there is to set
    doc = cfg.to_dict()
    assert set(doc) == {"weights", "lr", "T_pre", "T_train", "refresh_period",
                        "seeds", "splits", "mode", "optimizer", "hidden", "d_c"}
    assert len(doc) - 1 + len(doc["weights"]) == 18
    for key, value in (("dis_metric", "cosine"), ("sc_labels", "labeled"),
                       ("reinit_phase2", False)):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({**doc, key: value})
    # counts are whole numbers: 5.0 loads as 5, 2.7 is not truncated to 2
    for field in ("K", "K_prime"):
        loaded = TrainConfig.from_dict({"weights": {field: 5.0}}).weights
        assert (loaded.k if field == "K" else loaded.k_prime) == 5
        for bad in (2.7, float("inf"), "3", True):
            with pytest.raises(ConfigError, match=field):
                TrainConfig.from_dict({"weights": {field: bad}})
    with pytest.raises(ConfigError, match="alpha"):
        TrainConfig.from_dict({"weights": {"alpha": -1}})
    # so are the epoch counts and sizes: 5.0 loads as the int 5
    loaded = TrainConfig.from_dict({"T_pre": 5.0, "hidden": 8.0})
    assert (loaded.T_pre, loaded.hidden) == (5, 8) and type(loaded.T_pre) is int


# ---------------------------------------------------------------------------
# pre-training

def test_pretrain_separable_toy_converges():
    g, table = toy_dataset(n=120, seed=1, class_signal=6.0,
                           sensitive_signal=0.0)
    mask = np.ones(120, bool)
    cfg = quick_config(lr=0.1, T_pre=100)
    result = pretrain(NeighborAggregator(g), table.features, table.labels, mask, cfg, seed=0)
    assert result.losses[-1] < 0.1


def test_pretrain_pseudo_labels_retain_ground_truth():
    g, table = toy_dataset(n=120, seed=3)
    # hide half the labels
    hidden = table.labels.class_label.copy()
    hidden[::2] = -1
    labels = replace(table.labels, class_label=hidden)
    mask = labels.labeled_mask()
    cfg = quick_config(T_pre=10)
    result = pretrain(NeighborAggregator(g), table.features, labels, mask, cfg, seed=0)
    assert np.array_equal(result.pseudo_labels[mask], labels.class_label[mask])
    assert set(result.pseudo_labels.tolist()) <= {0, 1}


def test_pretrain_deterministic():
    g, table = toy_dataset(n=120, seed=4)
    mask = np.ones(120, bool)
    cfg = quick_config(T_pre=15)
    a = pretrain(NeighborAggregator(g), table.features, table.labels, mask, cfg, seed=5)
    b = pretrain(NeighborAggregator(g), table.features, table.labels, mask, cfg, seed=5)
    assert a.losses == b.losses
    assert np.array_equal(a.pseudo_labels, b.pseudo_labels)


def test_pretrain_divergence_names_phase_and_epoch():
    # an infinite feature passes the ReLU as +inf, and layer two's weights of
    # both signs turn it into a NaN logit (inf - inf); node 3 stays out of
    # the training rows, so the statistics that standardize it are finite
    g, table = toy_dataset(n=120, seed=2)
    mask = np.ones(120, bool)
    mask[3] = False
    x = table.features.copy()
    x[3, 2] = np.inf
    with np.errstate(all="ignore"), \
            pytest.raises(DivergenceError, match="pretrain") as info:
        pretrain(NeighborAggregator(g), x, table.labels, mask, quick_config(T_pre=5), seed=0)
    assert (info.value.phase, info.value.epoch) == ("pretrain", 1)


def test_nan_feature_table_raises_before_any_epoch(monkeypatch):
    """A NaN feature would pass the ReLU as 0 and train a constant predictor
    with NaN weights; an in-memory table holding one fails at once."""
    g, table = toy_dataset(n=120, seed=2)
    epochs = []
    monkeypatch.setattr(pipeline, "_descend", lambda *args: epochs.append(args))
    x = np.array(table.features)
    x[3, 2] = np.nan
    with pytest.raises(DatasetParseError, match=r"node 3, column"):
        run_single(g, replace(table, features=x), quick_config(), seed=1)
    assert not epochs


# ---------------------------------------------------------------------------
# phase 1 gating

def test_phase1_modes():
    g, table = toy_dataset(n=120, seed=5)
    labels = table.labels.with_pseudo(table.labels.class_label)
    for mode in ("CAF", "HSCCAF-GE"):
        out, report = run_phase1(g, labels, mode)
        assert out is g
        assert report.skipped
        assert report.hr_c_after == report.hr_c_before
    for mode in ("HSCCAF", "CAF+GE"):
        out, report = run_phase1(g, labels, mode)
        assert not report.skipped
        assert report.census_after.count_iii == 0
        assert out.m == g.m - len(report.removed_edges)


def test_phase1_outcomes(caplog):
    # a path 0-1-2-3 whose first two edges are Type III
    labels = NodeLabels.create(sensitive=[0, 0, 0, 1], class_label=[0, 1, 0, 0])
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    out, report = run_phase1(g, labels, "HSCCAF")
    assert out.edges == ((2, 3),) and report.removed_edges == ((0, 1), (1, 2))
    assert not report.skipped and not report.degenerate
    out, report = run_phase1(g, labels, "CAF")
    assert out is g and report.skipped and not report.degenerate
    assert report.removed_edges == () and report.census_after == report.census_before
    assert not caplog.records

    all_iii = Graph.from_edges(4, [(0, 1), (1, 2)])
    for mode in ("HSCCAF", "CAF+GE"):
        out, report = run_phase1(all_iii, labels, mode)
        assert out is all_iii and report.degenerate and not report.skipped
        assert report.removed_edges == ()
        assert report.census_before.count_iii == report.census_after.m == 2
    assert [r.getMessage() for r in caplog.records] == \
        ["editing would remove every edge; training on the unedited graph"] * 2
    out, report = run_phase1(all_iii, labels, "HSCCAF-GE")
    assert report.skipped and not report.degenerate

    for mode in pipeline.MODES:
        with pytest.raises(UndefinedRatioError):
            run_phase1(Graph.from_edges(4, []), labels, mode)


def test_edit_report_ratios_are_the_graphs_ratios():
    g, table = toy_dataset(n=120, seed=5)
    labels = table.labels.with_pseudo(np.arange(g.n) % 2)
    for mode in ("HSCCAF", "CAF"):
        out, report = run_phase1(g, labels, mode)
        assert (report.hr_c_before, report.hr_s_before) == homophily_ratios(g, labels)
        assert (report.hr_c_after, report.hr_s_after) == homophily_ratios(out, labels)
        doc = report.to_dict()
        assert [doc[k] for k in ("hr_c_before", "hr_s_before", "hr_c_after",
                                 "hr_s_after")] == \
            [*homophily_ratios(g, labels), *homophily_ratios(out, labels)]


# ---------------------------------------------------------------------------
# full training

def test_caf_reduction_bit_identical():
    g, table = toy_dataset(n=140, seed=6)
    base = quick_config(weights=LossWeights(alpha=0.5, beta=1.0, gamma=0.5,
                                            omega=0.0, eta=0.0, k=3, k_prime=3))
    a = run_single(g, table, replace(base, mode="HSCCAF-GE"), seed=9)
    b = run_single(g, table, replace(base, mode="CAF"), seed=9)
    assert [e.loss for e in a.epochs] == [e.loss for e in b.epochs]
    assert a.test_report.to_dict() == b.test_report.to_dict()


def test_run_deterministic_and_finite():
    g, table = toy_dataset(n=140, seed=7)
    cfg = quick_config()
    a = run_single(g, table, cfg, seed=1)
    b = run_single(g, table, cfg, seed=1)
    assert [e.loss for e in a.epochs] == [e.loss for e in b.epochs]
    assert all(np.isfinite(e.loss) for e in a.epochs)
    assert a.best_epoch <= cfg.T_train


def test_best_epoch_matches_recorded_scores():
    g, table = toy_dataset(n=140, seed=8)
    result = run_single(g, table, quick_config(), seed=2)
    scores = [e.val_score for e in result.epochs]
    defined = [(s, e.epoch) for e, s in zip(result.epochs, scores) if s is not None]
    best_score = max(s for s, _ in defined)
    earliest = min(ep for s, ep in defined if s == best_score)
    assert result.best_epoch == earliest
    assert result.val_report.score == best_score


def test_edit_report_satisfies_shift_identity():
    from fairgraph.graph import predict_ratio_shift

    g, table = toy_dataset(n=140, seed=15)
    result = run_single(g, table, quick_config(T_train=5), seed=6)
    report = result.edit_report
    dc, ds = predict_ratio_shift(report.census_before, len(report.removed_edges))
    assert abs((report.hr_c_after - report.hr_c_before) - dc) < 1e-12
    assert abs((report.hr_s_after - report.hr_s_before) - ds) < 1e-12


def test_threaded_fanout_matches_sequential(monkeypatch):
    g, table = toy_dataset(n=120, seed=16)
    cfg = quick_config(seeds=(0, 1), T_train=5)
    grid = {"K": [2, 3]}
    monkeypatch.delenv("FAIRGRAPH_THREADS", raising=False)
    _, sequential = run_experiment(g, table, cfg)
    grid_sequential = grid_search(g, table, cfg, grid)
    monkeypatch.setenv("FAIRGRAPH_THREADS", "2")
    _, threaded = run_experiment(g, table, cfg)
    assert sequential == threaded
    assert grid_search(g, table, cfg, grid) == grid_sequential


def test_training_divergence_names_phase_and_epoch():
    # an Adam step moves each weight by about lr, so at a huge lr the weights
    # grow without bound: pre-training's clamped loss survives one step, and
    # phase 2's unbounded terms overflow an epoch or more later
    g, table = toy_dataset(n=120, seed=2)
    cfg = TrainConfig(lr=1e90, T_pre=1, T_train=20)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="train") as info:
        run_single(g, table, cfg, seed=1)
    epoch = info.value.epoch
    assert info.value.phase == "train" and 1 < epoch <= cfg.T_train
    # the named epoch is the first non-finite one: a run that stops before
    # it ends with every loss finite
    with np.errstate(all="ignore"):
        stopped = run_single(g, table, replace(cfg, T_train=epoch - 1), seed=1)
    assert len(stopped.epochs) == epoch - 1
    assert all(np.isfinite(e.loss) for e in stopped.epochs)


def test_edited_graph_feeds_phase2():
    g, table = toy_dataset(n=140, seed=9)
    result = run_single(g, table, quick_config(), seed=3)
    assert not result.edit_report.skipped
    assert result.edit_report.census_after.count_iii == 0
    # the structure loss counts positives on the edited edge set
    assert result.edit_report.census_after.m == g.m - len(result.edit_report.removed_edges)


def _type_iii_between_training_nodes(g, table, cfg, seed):
    """g keeping only its Type III edges between the training nodes of the
    seed's split: training reads their ground truth, so editing would
    remove them all."""
    y, s = table.labels.class_label, table.labels.sensitive
    labeled = np.where(table.labels.labeled_mask())[0]
    train = split_dataset(table.n, labeled, cfg.splits, derive_seed(seed, "split")).train
    g = Graph.from_edges(g.n, [(u, v) for u, v in g.edges
                               if y[u] != y[v] and s[u] == s[v] and train[u] and train[v]])
    assert g.m > 0
    return g


def test_degenerate_edit_trains_on_unedited_graph():
    g, table = toy_dataset(n=140, seed=9)
    cfg = quick_config(T_pre=10, T_train=5)
    g = _type_iii_between_training_nodes(g, table, cfg, 3)
    result = run_single(g, table, cfg, seed=3)
    report = result.edit_report
    assert report.degenerate and not report.skipped
    assert report.removed_edges == ()
    assert report.census_before.count_iii == g.m
    assert report.census_after == report.census_before
    assert result.to_dict()["edit"]["degenerate"] is True
    # the same run as one that never edits
    unedited = run_single(g, table, replace(cfg, mode="HSCCAF-GE"), seed=3)
    assert [e.to_dict() for e in result.epochs] == [e.to_dict() for e in unedited.epochs]
    assert result.test_report.to_dict() == unedited.test_report.to_dict()
    assert unedited.to_dict()["edit"]["degenerate"] is False


def _relabelled(table, mask, seed):
    """`table` with a random class label on every `mask` node."""
    y = table.labels.class_label.copy()
    y[mask] = np.random.default_rng(seed).integers(0, 2, int(mask.sum()))
    return replace(table, labels=replace(table.labels, class_label=y))


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_training_reads_no_validation_or_test_label(mode):
    g, table = toy_dataset(n=140, seed=9)
    cfg = quick_config(mode=mode, T_pre=15, T_train=10)
    start = phase_one(g, table, cfg, 3)
    splits, base_pseudo = start.splits, start.pre.pseudo_labels
    base = run_single(g, table, cfg, seed=3).to_dict()

    # new test labels move the test report and nothing else
    moved = _relabelled(table, splits.test, seed=0)
    result = run_single(g, moved, cfg, seed=3).to_dict()
    assert result.pop("test") != base["test"]
    assert result == {k: v for k, v in base.items() if k != "test"}

    # new validation labels may move the selection, never the training
    moved = _relabelled(table, splits.val, seed=1)
    result = run_single(g, moved, cfg, seed=3)
    assert [(e.loss, e.parts) for e in result.epochs] == \
        [(e["loss"], e["parts"]) for e in base["epochs"]]
    assert result.to_dict()["edit"] == base["edit"]
    pseudo = phase_one(g, moved, cfg, 3).pre.pseudo_labels
    assert np.array_equal(pseudo, base_pseudo)
    assert np.array_equal(pseudo[splits.train], table.labels.class_label[splits.train])


def counter(counts, name, fn):
    """fn, counting its calls in counts[name]."""
    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("zeroed", ["none", "alpha", "beta", "omega", "eta"])
@pytest.mark.parametrize("mode", pipeline.MODES)
def test_mode_gating_affects_parts(monkeypatch, mode, zeroed):
    """The prediction term always trains; every other term trains when its
    weight is > 0, the contrast and environment terms only in the contrast
    modes. An epoch's parts list all five terms in one order, None for a
    term not trained, and what only that term calls never runs."""
    g, table = toy_dataset(n=140, seed=10)
    cfg = quick_config(mode=mode, T_pre=4, T_train=6, refresh_period=3)
    if zeroed != "none":
        cfg = replace(cfg, weights=replace(cfg.weights, **{zeroed: 0.0}))
    w, contrast = cfg.weights, pipeline.MODE_FLAGS[mode]["contrast"]
    trained = {"pred": True, "inv": w.alpha > 0, "suf": w.beta > 0,
               "sc": contrast and w.omega > 0, "env": contrast and w.eta > 0}
    calls = {"select_counterfactuals": "inv", "sample_negative_edges": "suf",
             "sc_loss": "sc", "env_loss": "env"}
    counts = Counter()
    for name in calls:
        monkeypatch.setattr(pipeline, name, counter(counts, name, getattr(pipeline, name)))
    result = run_single(g, table, cfg, seed=4)
    for e in result.epochs:
        assert list(e.parts) == ["pred", "inv", "suf", "sc", "env"]
        assert {k: v is not None for k, v in e.parts.items()} == trained
    assert {name: counts[name] > 0 for name in calls} == \
        {name: trained[term] for name, term in calls.items()}
    assert result.edit_report.skipped is not pipeline.MODE_FLAGS[mode]["edit"]


def test_undefined_validation_metrics_disqualify_selection():
    # a sensitive group without positive labels makes the equal-opportunity
    # gap undefined on every split, so no epoch can be selected
    g, table = toy_dataset(n=120, seed=17)
    y = table.labels.class_label.copy()
    y[table.labels.sensitive == 1] = 0
    crippled = replace(table, labels=replace(table.labels, class_label=y))
    with pytest.raises(UndefinedMetricError):
        run_single(g, crippled, quick_config(T_pre=5, T_train=5), seed=0)


@pytest.mark.parametrize("mode", ["CAF", "HSCCAF"])
def test_labels_equal_to_the_group_name_the_undefined_metric(mode, caplog):
    # with y == s no node has a counterfactual candidate, and group 0 of the
    # validation split has no positive-class node, so dEO is undefined at
    # every epoch; the error names that, and nothing is logged about it
    g, table = toy_dataset(n=200, seed=5)
    s = table.labels.sensitive
    grouped = replace(table, labels=replace(table.labels, class_label=s.copy()))
    with caplog.at_level("WARNING", logger="fairgraph"), pytest.raises(
            UndefinedMetricError, match="no epoch produced defined validation metrics: "
                                        "equal opportunity is undefined: group 0 has no"):
        run_single(g, grouped, quick_config(T_pre=5, T_train=5, mode=mode), seed=0)
    assert not caplog.records


def test_run_result_serializes(tmp_path):
    import json

    g, table = toy_dataset(n=120, seed=11)
    result = run_single(g, table, quick_config(T_train=5), seed=0)
    doc = result.to_dict()
    blob = json.dumps(doc)
    assert json.loads(blob)["best_epoch"] == result.best_epoch
    assert doc["test"]["score"] == pytest.approx(selection_score(
        doc["test"]["bacc"], doc["test"]["delta_sp"], doc["test"]["delta_eo"]))


def test_run_experiment_aggregates_mean_std():
    g, table = toy_dataset(n=140, seed=12)
    cfg = quick_config(seeds=(0, 1), T_train=8)
    results, agg = run_experiment(g, table, cfg)
    assert agg["n_runs"] == 2
    baccs = [r.test_report.bacc for r in results]
    assert agg["bacc"]["mean"] == pytest.approx(float(np.mean(baccs)))
    assert agg["bacc"]["std"] == pytest.approx(float(np.std(baccs)))
    # one run per seed, in the config's order; the seed is the run's identity
    assert [r.seed for r in results] == [0, 1]
    assert [r.to_dict()["seed"] for r in results] == [0, 1]


def test_singleton_grid_equals_direct_run():
    g, table = toy_dataset(n=140, seed=13)
    cfg = quick_config(T_train=8)
    cells = grid_search(g, table, cfg, {"alpha": [0.5]})
    direct, _ = run_experiment(g, table, cfg)
    assert len(cells) == 1
    assert cells[0].mean_val_score == direct[0].val_report.score


def test_grid_ranking_deterministic():
    g, table = toy_dataset(n=140, seed=14)
    cfg = quick_config(T_train=5)
    grid = {"alpha": [0.2, 0.9], "omega": [0.03, 0.3]}
    a = grid_search(g, table, cfg, grid)
    b = grid_search(g, table, cfg, grid)
    assert [c.params for c in a] == [c.params for c in b]
    assert len(a) == 4
    scores = [c.mean_val_score for c in a]
    assert scores == sorted(scores, reverse=True)
    with pytest.raises(ConfigError):
        grid_search(g, table, cfg, {"lr": [0.1]})


def test_grid_runs_phase_one_once_per_seed(monkeypatch):
    g, table = toy_dataset(n=120, seed=14)
    cfg = quick_config(seeds=(0, 1), T_pre=5, T_train=3)
    seeds = []
    original = pipeline.pretrain

    def counted(graph, x, labels, train_mask, cfg, seed):
        seeds.append(seed)
        return original(graph, x, labels, train_mask, cfg, seed)

    monkeypatch.setattr(pipeline, "pretrain", counted)
    cells = grid_search(g, table, cfg, {"alpha": [0.2, 0.9], "omega": [0.03, 0.3]})
    assert len(cells) == 4
    assert sorted(seeds) == [0, 1]


def test_grid_cell_equals_run_experiment_under_its_weights():
    """Every cell's phase 2 starts from the same pre-trained parameters, not
    from another cell's trained copy of them."""
    g, table = toy_dataset(n=120, seed=16)
    cfg = quick_config(seeds=(0, 1), T_pre=10, T_train=5)
    cells = grid_search(g, table, cfg, {"alpha": [0.2, 0.9], "K": [2, 3]})
    for cell in cells:
        weights = LossWeights.from_dict({**cfg.weights.to_dict(), **cell.params})
        results, agg = run_experiment(g, table, replace(cfg, weights=weights))
        assert cell.aggregate == agg
        scores = [r.val_report.score for r in results]
        assert cell.mean_val_score == float(np.mean(scores))


@pytest.mark.parametrize("mode, degenerate", [(mode, False) for mode in pipeline.MODES]
                         + [("HSCCAF", True)])
def test_phase_invariants_are_built_once(monkeypatch, mode, degenerate):
    """One run builds one NeighborAggregator per distinct graph, one
    neighbour mean per forward pass plus one per phase (layer one's input),
    one structure operator for phase 2 and one pair of invariance operators
    per counterfactual refresh. The environment loss's pairs change with
    every forward pass, so each of its calls builds one operator."""
    g, table = toy_dataset(n=140, seed=9)
    cfg = quick_config(T_pre=4, T_train=7, refresh_period=3, mode=mode)
    if degenerate:
        g = _type_iii_between_training_nodes(g, table, cfg, 3)
    counts = Counter()
    monkeypatch.setattr(NeighborAggregator, "__init__",
                        counter(counts, "aggregators", NeighborAggregator.__init__))
    monkeypatch.setattr(ad, "row_mean_neighbors",
                        counter(counts, "means", ad.row_mean_neighbors))
    monkeypatch.setattr(losses.PairOperator, "__init__",
                        counter(counts, "operators", losses.PairOperator.__init__))
    for name in ("encode", "select_counterfactuals", "env_loss"):
        monkeypatch.setattr(pipeline, name, counter(counts, name, getattr(pipeline, name)))
    report = run_single(g, table, cfg, seed=3).edit_report

    edits = pipeline.MODE_FLAGS[mode]["edit"] and not degenerate
    assert report.degenerate == degenerate and bool(report.removed_edges) == edits
    assert counts["aggregators"] == (2 if edits else 1)
    assert counts["encode"] == (cfg.T_pre + 1) + (cfg.T_train + 1)
    assert counts["means"] == counts["encode"] + 2
    assert counts["select_counterfactuals"] == 3  # epochs 1, 3 and 6
    contrast = pipeline.MODE_FLAGS[mode]["contrast"]
    assert counts["env_loss"] == (cfg.T_train if contrast else 0)
    assert counts["operators"] == 1 + 2 * 3 + counts["env_loss"]


def test_phase_one_result_is_not_changed_by_training():
    g, table = toy_dataset(n=120, seed=16)
    cfg = quick_config(T_pre=10, T_train=5)
    start = phase_one(g, table, cfg, 0)
    before = [p.copy() for p in start.pre.params.arrays()]
    first = pipeline.train_full(start, table.features, table.labels, cfg, 0)
    assert all(np.array_equal(a, b)
               for a, b in zip(before, start.pre.params.arrays(), strict=True))
    second = pipeline.train_full(start, table.features, table.labels, cfg, 0)
    assert first.to_dict() == second.to_dict()
    assert first.to_dict() == run_single(g, table, cfg, 0).to_dict()


def test_german_optimum_is_a_valid_grid_cell():
    from fairgraph.pipeline import DEFAULT_GRID

    german_best = {"alpha": 10, "beta": 1, "gamma": 1, "omega": 0.3, "eta": 0.09}
    for key, value in german_best.items():
        assert value in DEFAULT_GRID[key]
