"""Loaders, the synthetic generator, standardization, and exports."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from fairgraph.data import (
    NodeTable,
    SynthConfig,
    atomic_open,
    edge_plan,
    export_embeddings,
    load_dataset,
    make_dir,
    read_json,
    resolve_dataset,
    synth_generate,
    write_dataset,
)
from fairgraph.errors import (
    ConfigError,
    DatasetParseError,
    InfeasibleError,
    MissingColumnError,
    NonBinarySensitiveError,
)
from fairgraph.graph import UNKNOWN, NodeLabels, edge_census, homophily_ratios
from fairgraph.model import feature_stats


def write_toy_dataset(tmp_path, rows=None, meta=None, edges="0 1\n1 2\n"):
    (tmp_path / "features.csv").write_text(
        rows if rows is not None else
        "age,income,approved,group\n30,50,1,0\n40,20,0,1\n50,90,1,1\n")
    (tmp_path / "edges.txt").write_text(edges)
    (tmp_path / "meta.json").write_text(json.dumps(meta or {
        "label_col": "approved", "sensitive_col": "group",
        "positive_value": 1, "sensitive_positive_value": 1}))
    return str(tmp_path)


def test_load_basic_dataset(tmp_path):
    graph, table = load_dataset(write_toy_dataset(tmp_path))
    assert graph.n == 3 and graph.m == 2
    assert table.labels.class_label.tolist() == [1, 0, 1]
    assert table.labels.sensitive.tolist() == [0, 1, 1]
    # label column excluded, sensitive kept as a feature by default
    assert table.feature_names == ("age", "income", "group")
    assert table.features.shape == (3, 3)


def test_categorical_sensitive_column_loads_as_mapped_binary(tmp_path):
    spec = write_toy_dataset(
        tmp_path,
        rows="age,approved,sex\n30,yes,F\n40,no,M\n50,yes,M\n",
        meta={"label_col": "approved", "sensitive_col": "sex",
              "positive_value": "yes", "sensitive_positive_value": "M"})
    _, table = load_dataset(spec)
    assert table.labels.class_label.tolist() == [1, 0, 1]
    assert table.labels.sensitive.tolist() == [0, 1, 1]
    sex_col = table.feature_names.index("sex")
    assert table.features[:, sex_col].tolist() == [0.0, 1.0, 1.0]


def test_missing_labels_become_unlabeled(tmp_path):
    spec = write_toy_dataset(
        tmp_path, rows="age,approved,group\n30,1,0\n40,,1\n50,0,1\n")
    _, table = load_dataset(spec)
    assert table.labels.class_label.tolist() == [1, UNKNOWN, 0]
    assert table.labels.labeled_mask().tolist() == [True, False, True]


def test_loader_typed_errors(tmp_path):
    with pytest.raises(MissingColumnError):
        load_dataset(write_toy_dataset(
            tmp_path, meta={"label_col": "nope", "sensitive_col": "group",
                            "positive_value": 1, "sensitive_positive_value": 1}))
    with pytest.raises(NonBinarySensitiveError):
        load_dataset(write_toy_dataset(
            tmp_path, rows="age,approved,group\n30,1,0\n40,0,\n50,0,1\n"))
    with pytest.raises(NonBinarySensitiveError):
        load_dataset(write_toy_dataset(
            tmp_path, rows="age,approved,group\n30,1,0\n40,0,2\n50,0,1\n"))
    with pytest.raises(DatasetParseError):
        load_dataset(write_toy_dataset(
            tmp_path, rows="age,approved,group\n30,1,0\nforty,0,1\n50,0,1\n"))
    with pytest.raises(DatasetParseError):
        load_dataset(write_toy_dataset(tmp_path, edges="0 1 7\n"))
    # a misspelt drop column is an error, not a no-op that leaves its column, the
    # sensitive one here, among the features
    with pytest.raises(MissingColumnError,
                       match=re.escape("drop columns ['gruop', 'x'] not in header")):
        load_dataset(write_toy_dataset(tmp_path, meta={
            "label_col": "approved", "sensitive_col": "group", "positive_value": 1,
            "sensitive_positive_value": 1, "drop_cols": ["age", "gruop", "x"]}))
    with pytest.raises(DatasetParseError, match=re.escape("column names ['age'] repeat")):
        load_dataset(write_toy_dataset(
            tmp_path, rows="age,age,approved,group\n30,1,1,0\n40,2,0,1\n50,3,1,1\n"))
    with pytest.raises(DatasetParseError):
        resolve_dataset("no-such-dataset-name")


@pytest.mark.parametrize("raw", [b"\xff\xfe{", b"{", b"[" * 100_000],
                         ids=["not-utf-8", "not-json", "nested-too-deep"])
def test_read_json_raises_the_given_error(tmp_path, raw):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    with pytest.raises(DatasetParseError, match=re.escape(f"cannot read thing {path}")):
        read_json(path, "thing", DatasetParseError)
    with pytest.raises(ConfigError, match="cannot read thing"):
        read_json(tmp_path / "missing.json", "thing")


BASE_META = {"label_col": "approved", "sensitive_col": "group",
             "positive_value": 1, "sensitive_positive_value": 1}
BAD_META = {"number": 5, "null": None, "list": [BASE_META],
            "drop_cols-number": {**BASE_META, "drop_cols": 5},
            "drop_cols-string": {**BASE_META, "drop_cols": "age"},
            "feature_cols-number": {**BASE_META, "feature_cols": 7},
            "feature_cols-non-string": {**BASE_META, "feature_cols": ["age", 3]},
            "feature_cols-null": {**BASE_META, "feature_cols": None},
            "label_col-is-sensitive_col": {**BASE_META, "label_col": "group"}}


@pytest.mark.parametrize("name", sorted(BAD_META))
def test_meta_of_the_wrong_shape_is_a_parse_error(tmp_path, name):
    spec = write_toy_dataset(tmp_path)
    (tmp_path / "meta.json").write_text(json.dumps(BAD_META[name]))
    with pytest.raises(DatasetParseError, match="meta"):
        load_dataset(spec)


def test_meta_column_lists_select_features(tmp_path):
    _, table = load_dataset(write_toy_dataset(
        tmp_path, meta={**BASE_META, "drop_cols": ["income"]}))
    assert table.feature_names == ("age", "group")
    _, table = load_dataset(write_toy_dataset(
        tmp_path, meta={**BASE_META, "feature_cols": ["income"]}))
    assert table.feature_names == ("income",)


def test_a_column_both_dropped_and_selected_is_a_parse_error(tmp_path):
    """A column named in drop_cols and in feature_cols is a contradiction,
    not a feature: the error names every such column."""
    spec = write_toy_dataset(tmp_path, meta={
        **BASE_META, "drop_cols": ["group", "income"],
        "feature_cols": ["income", "age", "group"]})
    with pytest.raises(DatasetParseError, match=re.escape(
            "meta drop_cols and feature_cols both name ['group', 'income']")):
        load_dataset(spec)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "Infinity", "+nan"])
def test_non_finite_feature_is_a_parse_error(tmp_path, cell):
    spec = write_toy_dataset(
        tmp_path, rows=f"age,income,approved,group\n30,50,1,0\n40,{cell},0,1\n50,9,1,1\n")
    with pytest.raises(DatasetParseError, match=r"node 1, column 'income'"):
        load_dataset(spec)


def test_missing_feature_text_still_reads_as_zero(tmp_path):
    _, table = load_dataset(write_toy_dataset(
        tmp_path, rows="age,income,approved,group\n30,nan,1,0\n40,,0,1\n50,NA,1,1\n"))
    assert table.features[:, 1].tolist() == [0.0, 0.0, 0.0]


def test_node_table_owns_its_features():
    """A NaN in an in-memory table is refused, and one written into the
    caller's array afterwards never reaches the table."""
    labels = NodeLabels.create(sensitive=np.array([0, 1, 1]),
                               class_label=np.array([1, 0, 1]))
    x = np.arange(6, dtype=np.float64).reshape(3, 2)
    x[2, 1] = np.nan
    with pytest.raises(DatasetParseError, match=r"node 2, column 'b'"):
        NodeTable(features=x, labels=labels, feature_names=("a", "b"))
    x[2, 1] = 5.0
    table = NodeTable(features=x, labels=labels, feature_names=("a", "b"))
    x[0, 0] = np.nan
    assert np.isfinite(table.features).all() and x.flags.writeable


@pytest.mark.parametrize("rows, column, value", [
    ("age,approved,group\n30,1.0,0\n40,0.0,1\n50,,1\n", "approved", "1"),
    ("age,approved,group\n30,1,0.0\n40,0,1.0\n50,1,1.0\n", "group", "1"),
    ("age,approved,group\n30,0,0\n40,0,1\n50,,1\n", "approved", "1")])
def test_positive_value_that_matches_no_cell_is_a_parse_error(tmp_path, rows, column, value):
    """A label or sensitive column whose every value cell differs from its
    positive value would load every node as 0."""
    with pytest.raises(DatasetParseError,
                       match=rf"column '{column}': no cell equals its \w+ {value}"):
        load_dataset(write_toy_dataset(tmp_path, rows=rows))


def test_label_column_without_values_loads_unlabelled(tmp_path):
    _, table = load_dataset(write_toy_dataset(
        tmp_path, rows="age,approved,group\n30,,0\n40,NA,1\n50, nan ,1\n"))
    assert table.labels.class_label.tolist() == [UNKNOWN] * 3


def test_duplicate_edges_deduplicated(tmp_path):
    spec = write_toy_dataset(tmp_path, edges="0 1\n1 0\n0,1\n1 2\n")
    graph, _ = load_dataset(spec)
    assert graph.edges == ((0, 1), (1, 2))


def test_standardize_uses_training_rows_only():
    x = np.array([[0.0, 10.0], [2.0, 10.0], [100.0, 10.0]])
    mask = np.array([True, True, False])
    mean, std = feature_stats(x, mask)
    assert mean.tolist() == [1.0, 10.0]
    assert std.tolist() == [1.0, 1.0]  # constant column keeps std 1
    xs = (x - mean) / std  # as `encode` applies them
    assert xs[0].tolist() == [-1.0, 0.0]
    assert xs[2, 0] == 99.0  # applied to non-training rows too


def test_synth_deterministic_and_on_target():
    cfg = SynthConfig(n=2000, target_hr_c=0.6, target_hr_s=0.8, mean_degree=8, seed=0)
    g1, t1 = synth_generate(cfg)
    g2, t2 = synth_generate(cfg)
    assert g1.edges == g2.edges
    assert np.array_equal(t1.features, t2.features)
    for seed in range(10):
        g, t = synth_generate(SynthConfig(n=2000, target_hr_c=0.6,
                                          target_hr_s=0.8, mean_degree=8,
                                          seed=seed))
        hr_c, hr_s = homophily_ratios(g, t.labels)
        assert abs(hr_c - 0.6) < 0.03
        assert abs(hr_s - 0.8) < 0.03


def test_synth_pure_within_class_wiring():
    # hr_c target ~1 forces same-class edges only
    cfg = SynthConfig(n=400, target_hr_c=0.999, target_hr_s=0.6, mean_degree=6,
                      seed=1)
    g, t = synth_generate(cfg)
    census = edge_census(g, t.labels)
    assert census.n_c / census.m > 0.99


def test_synth_infeasible_targets():
    with pytest.raises(InfeasibleError):
        SynthConfig(n=100, target_hr_c=1.2, target_hr_s=0.5)
    with pytest.raises(InfeasibleError):
        # all mass on category I but almost no same/same pairs available
        SynthConfig(n=100, target_hr_c=0.99, target_hr_s=0.99,
                    mean_degree=99.0)
    for degree in (-3.0, float("nan")):
        with pytest.raises(InfeasibleError, match="mean_degree"):
            SynthConfig(n=100, target_hr_c=0.6, target_hr_s=0.8, mean_degree=degree)


def expected_census(cfg: SynthConfig):
    """Closed-form expected per-category edge counts and their std devs."""
    rates, pair_counts = edge_plan(cfg)
    expected = {cat: rates[cat] * pair_counts[cat] for cat in rates}
    stds = {cat: math.sqrt(pair_counts[cat] * rates[cat] * (1 - rates[cat]))
            for cat in rates}
    return expected, stds


def test_synth_census_matches_closed_form_at_n5000():
    cfg = SynthConfig(n=5000, target_hr_c=0.55, target_hr_s=0.75,
                      mean_degree=10, seed=11)
    expected, stds = expected_census(cfg)
    g, t = synth_generate(cfg)
    census = edge_census(g, t.labels)
    got = {"I": census.count_i, "II": census.count_ii,
           "III": census.count_iii, "IV": census.count_iv}
    for cat in expected:
        assert abs(got[cat] - expected[cat]) <= 3.0 * stds[cat], cat


def test_write_then_load_round_trip(tmp_path):
    g, table = synth_generate(SynthConfig(n=150, target_hr_c=0.6,
                                          target_hr_s=0.8, mean_degree=6,
                                          seed=3))
    spec = write_dataset(str(tmp_path / "ds"), g, table)
    g2, table2 = load_dataset(spec)
    assert g2.edges == g.edges
    assert edge_census(g2, table2.labels) == edge_census(g, table.labels)
    assert np.array_equal(table2.features, table.features)
    assert table2.labels.class_label.tolist() == table.labels.class_label.tolist()


def test_export_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g, table = synth_generate(SynthConfig(n=20, target_hr_c=0.6,
                                          target_hr_s=0.7, mean_degree=4,
                                          seed=4))
    c = rng.standard_normal((20, 3))
    e = rng.standard_normal((20, 2))
    path = tmp_path / "emb.csv"
    export_embeddings(path, c, e, table.labels, ["train"] * 20)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert len(header) == 4 + 3 + 2
    assert header[:4] == ["node_id", "split", "y", "s"]
    reloaded_c = np.array([[float(v) for v in row[4:7]] for row in body])
    reloaded_e = np.array([[float(v) for v in row[7:]] for row in body])
    assert np.array_equal(reloaded_c, c)
    assert np.array_equal(reloaded_e, e)
    assert [int(r[3]) for r in body] == table.labels.sensitive.tolist()


def test_writer_that_raises_keeps_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new, half")
            fh.flush()
            raise RuntimeError("writer failed partway")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_unwritable_paths_are_config_errors_naming_the_path(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    for path in (tmp_path / "missing" / "out.txt", afile / "out.txt"):
        with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(path))}: "):
            with atomic_open(path) as fh:
                fh.write("new\n")
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(afile))}/sub: "):
        make_dir(afile / "sub")
    assert afile.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["afile"]


def test_failed_export_keeps_old_file(tmp_path):
    g, table = synth_generate(SynthConfig(n=20, target_hr_c=0.6,
                                          target_hr_s=0.7, mean_degree=4,
                                          seed=4))
    c = np.zeros((20, 2))
    path = tmp_path / "emb.csv"
    export_embeddings(path, c, c, table.labels, ["train"] * 20)
    before = path.read_bytes()
    # too few split names: the writer raises after the first ten rows
    with pytest.raises(IndexError):
        export_embeddings(path, c + 1.0, c, table.labels, ["val"] * 10)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["emb.csv"]
