"""The dataset readers on near-valid files: `data.load_edge_list` and the
`features.csv` part of `data.load_dataset` parse whole files and whole
columns at once, and must return what the line-by-line and cell-by-cell
readers in `oracles.py` return, or raise the same error with the same
message."""

import json
import pathlib
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairgraph.data import load_dataset, load_edge_list
from fairgraph.graph import sorted_unique
from oracles import edge_list_by_line, table_by_cell

IDS = ["0", "1", "2", "17", "3.0", "1e2", "+4", "-1", "-0", "1_000", "٣",
       "9007199254740993", "9223372036854775807", "-9223372036854775808"]
ODD_IDS = [".5", "1.5", "x", "1e", "9223372036854775808", "-9223372036854777856", "1e30",
           "inf", "-inf", "nan", "-nan"]
SEPARATORS = [" ", "  ", "\t", ",", ", ", " ,\t", "\u3000"]
TAILS = ["", " ", "\t", ",", "\x0c"]
ODD_LINES = [",#", "1 2 3", "1,2,3", "5", " 7 ", "1 2 # c", "1 2 #"]
ENDINGS = ["\n", "\r\n", "\r"]
edge_lines = st.one_of(
    st.tuples(st.sampled_from(IDS), st.sampled_from(SEPARATORS), st.sampled_from(IDS),
              st.sampled_from(TAILS)).map("".join),
    st.sampled_from(["", "  ", "\t", "# comment", "  # indented", "#", "#1 2 3", "\x0c1 2"]))
odd_lines = st.one_of(
    st.sampled_from(ODD_LINES),
    st.tuples(st.sampled_from(IDS + ODD_IDS), st.sampled_from(SEPARATORS),
              st.sampled_from(ODD_IDS)).map("".join))


@st.composite
def edge_files(draw):
    """An edge file of valid, blank and comment lines in mixed line endings,
    with at most two lines that may break the rules."""
    lines = draw(st.lists(edge_lines, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_lines))
    ends = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


FEATURE_CELLS = ["1", "-2.5", " 3.0 ", "1e2", "1_000", "-0", "", " NA ", "na", "nan", "NaN"]
ODD_CELLS = {0: ["x", "+nan", "-nan", "inf", "1e999", "None"], 1: ["x", "+nan", "inf"],
             2: ["1.0", "0.0", "yes", "nan"], 3: ["", "None", "2", "1.0", "0.0"]}
rows = st.tuples(st.sampled_from(FEATURE_CELLS), st.sampled_from(FEATURE_CELLS),
                 st.sampled_from(["0", "1", " 1 ", "", "NA"]),
                 st.sampled_from(["0", "1", " 0"])).map(list)


@st.composite
def feature_files(draw):
    """A `features.csv` of well-formed rows with at most two odd cells, a
    row of the wrong width or a blank line among them."""
    table = draw(st.lists(rows, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if not table:
            break
        i = draw(st.integers(0, len(table) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "short", "long", "blank"]))
        if kind == "cell":
            j = draw(st.integers(0, len(table[i]) - 1)) if table[i] else None
            if j in ODD_CELLS:
                table[i][j] = draw(st.sampled_from(ODD_CELLS[j]))
        elif kind == "blank":
            table.insert(i, [])
        else:
            table[i] = table[i][:3] if kind == "short" else table[i] + ["9"]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([" a ,b,label,group", *map(",".join, table)]) + end


META = {"label_col": "label", "sensitive_col": "group",
        "positive_value": 1, "sensitive_positive_value": 1}


def _outcome(read, *args):
    """What `read` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except Exception as exc:  # the error is the outcome under test
        return type(exc), str(exc)


@settings(max_examples=400)
@given(text=edge_files())
@example(text="1 2 3\n4 5 6\n")
@example(text="0 1\r\n9223372036854775808 2\r\n")
@example(text="  # comment\n0 1\n")
def test_edge_list_matches_the_line_by_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        got, want = _outcome(load_edge_list, path), _outcome(edge_list_by_line, path)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()
    else:
        assert got == want


def test_undecodable_bytes_after_a_bad_line_name_the_line(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"0 1\n0 1 2\n" + b"2 3\n" * 5000 + b"\xff\n")
    message = f"{path}:2: expected two columns, got 3"
    assert _outcome(edge_list_by_line, path) == (ValueError, message)
    assert _outcome(load_edge_list, path) == (ValueError, message)


@settings(max_examples=400)
@given(text=feature_files())
@example(text="a,b,label,group\n1,2,1,1\n3,4,0,\n5,x,0,0\n")
@example(text="a,b,label,group\n1,2,1,1\n3,x,0,0\n5,6,0\n")
@example(text="a,b,label,group\n1,2,1,1\ninf,x,0,0\n")
def test_node_table_matches_the_cell_by_cell_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "features.csv").write_bytes(text.encode("utf-8"))
        (root / "edges.txt").write_text("")
        (root / "meta.json").write_text(json.dumps(META))
        got = _outcome(lambda: load_dataset(str(root))[1])
        want = _outcome(table_by_cell, str(root / "features.csv"), META)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.features.tobytes() == want.features.tobytes()
        assert got.features.shape == want.features.shape
        assert got.labels.class_label.tolist() == want.labels.class_label.tolist()
        assert got.labels.sensitive.tolist() == want.labels.sensitive.tolist()
        assert got.feature_names == want.feature_names


@given(values=st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
def test_sorted_unique_is_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    got, want = sorted_unique(arr), np.unique(arr)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
