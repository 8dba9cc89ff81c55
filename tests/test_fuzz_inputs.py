"""Bounded fuzz of the input files: whatever bytes a dataset file, a config,
a grid, a stored run report or a checkpoint holds, and whatever value one
key of a valid `meta.json` takes, `fairgraph` ends with exit 0, 1 or 2, and
a failure is one `error:` line on stderr, never a traceback, with no output
left behind."""

import contextlib
import io
import json
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairgraph.cli import main
from fairgraph.data import load_dataset, resolve_dataset
from fairgraph.model import init_params, save_checkpoint

SMALL = {"T_pre": 1, "T_train": 1}
DATASET_FILES = ("meta.json", "features.csv", "edges.txt")
TARGETS = DATASET_FILES + ("config", "grid", "report", "checkpoint")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
contents = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda text: text.encode("utf-8")),
    json_values.map(lambda value: json.dumps(value).encode("utf-8")))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A toy dataset, a short config, a one-cell grid, and an untrained
    checkpoint with a run report that fit the dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    dataset = root / "toy"
    assert main(["synth", "--out", str(dataset), "--n", "60", "--seed", "4"]) == 0
    graph, table = load_dataset(resolve_dataset(str(dataset)))
    save_checkpoint(root / "model.ckpt.json",
                    init_params(table.features.shape[1], 8, 4, seed=0))
    (root / "report.json").write_text(json.dumps(
        {"splits": {"train": [0, 1], "val": [2, 3], "test": [4, 5]},
         "edit": {"removed_edges": [graph.edge_array[0].tolist()]},
         "test": {}, "seed": 0, "split_id": 0}))
    (root / "config.json").write_text(json.dumps(SMALL))
    (root / "grid.json").write_text(json.dumps({"alpha": [0.5]}))
    return root


def _bounded_config(raw):
    """A drawn config that parses to a mapping gets one-epoch phases, so no
    example trains long; anything else is written as drawn."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError:
        return raw
    if not isinstance(doc, dict):
        return raw
    return json.dumps({**doc, **SMALL}).encode("utf-8")


def _command(target, root, work):
    """The command that reads `target`, and the path in `work` that the draw
    goes to; every other input is read from `root` as it is."""
    dataset = root / "toy"
    files = {"config": root / "config.json", "grid": root / "grid.json",
             "report": root / "report.json", "checkpoint": root / "model.ckpt.json"}
    if target in DATASET_FILES:
        dataset = work / "toy"
        shutil.copytree(root / "toy", dataset)
        path = dataset / target
    else:
        path = files[target] = work / files[target].name
    common = ["--dataset", str(dataset)]
    if target in ("report", "checkpoint"):
        command = ["evaluate", *common, "--checkpoint", str(files["checkpoint"]),
                   "--report", str(files["report"]), "--json", str(work / "out.json")]
    elif target == "grid":
        command = ["grid", *common, "--config", str(files["config"]),
                   "--grid-json", str(files["grid"]), "--out", str(work / "out")]
    else:
        command = ["train", *common, "--config", str(files["config"]),
                   "--out", str(work / "out")]
    return command, path


def _assert_ends_in_an_exit_code(target, root, raw):
    """Write raw as `target` in a fresh directory and run the command that
    reads it: exit 0, 1 or 2, and a failure is one `error:` line with no
    output left behind."""
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        command, path = _command(target, root, work)
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command)
        written = [p.name for p in (work / "out", work / "out.json") if p.exists()]
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not written, written


@pytest.mark.parametrize("target", TARGETS)
@given(raw=contents)
def test_any_input_file_ends_in_an_exit_code(inputs, target, raw):
    _assert_ends_in_an_exit_code(
        target, inputs, _bounded_config(raw) if target == "config" else raw)


META_KEYS = ("label_col", "sensitive_col", "positive_value", "sensitive_positive_value",
             "drop_cols", "feature_cols")


@st.composite
def header_name_lists(draw, header):
    """A list of header names, repeats allowed, with at most one unknown
    name (a header name with text appended) inserted anywhere."""
    names = draw(st.lists(st.sampled_from(header), max_size=4))
    if draw(st.booleans()):
        unknown = draw(st.sampled_from(header)) + draw(st.text(min_size=1, max_size=3))
        if unknown not in header:
            names.insert(draw(st.integers(0, len(names))), unknown)
    return names


def meta_values(header):
    """A value for one meta key: a list of header names, one header name,
    or any JSON value."""
    return st.one_of(header_name_lists(header), st.sampled_from(header), json_values)


@pytest.mark.parametrize("key", META_KEYS)
@given(data=st.data())
def test_near_valid_meta_ends_in_an_exit_code(inputs, key, data):
    """The toy dataset's valid meta with one key's value replaced, so that
    column lists overlap, repeat, misspell and name the label or the
    sensitive column: `train` still ends in an exit code."""
    meta = json.loads((inputs / "toy" / "meta.json").read_text())
    header = (inputs / "toy" / "features.csv").read_text().split("\n", 1)[0].split(",")
    meta[key] = data.draw(meta_values(header))
    _assert_ends_in_an_exit_code("meta.json", inputs, json.dumps(meta).encode("utf-8"))
