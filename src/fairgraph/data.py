"""Dataset ingestion, a planted-partition synthetic generator with
controllable homophily, and embedding export.

The on-disk dataset layout is three files in one directory:
  features.csv  header row; one row per node
  edges.txt     two integer columns, zero-based ids, one undirected edge/line
  meta.json     {"label_col", "sensitive_col", "positive_value",
                 "sensitive_positive_value"} plus optional "feature_cols"
                 and "drop_cols"
Rows with a missing label become unlabeled nodes; the sensitive column must
be binary after mapping and defined everywhere. A label or sensitive column
with values must hold its positive value in some cell. A missing feature
value reads as 0.0; any other must be a finite number.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    ConfigError,
    DatasetParseError,
    InfeasibleError,
    MissingColumnError,
    NonBinarySensitiveError,
)
from .graph import UNKNOWN, Graph, NodeLabels, classify_edge, decode_pairs
from .losses import _whole_number

BLOCK_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))  # (y, s) node layout


@dataclass(frozen=True)
class NodeTable:
    """Per-node features plus labels; features are raw (not standardized).
    The table keeps its own read-only copy of the features, and every value
    must be finite: a NaN or infinite feature is a DatasetParseError naming
    its row, as the node id, and its column, not a column that trains to NaN."""

    features: np.ndarray
    labels: NodeLabels
    feature_names: tuple

    def __post_init__(self):
        arr = np.array(self.features, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            i, j = bad[0]
            raise DatasetParseError(
                f"node {i}, column {self.feature_names[j]!r}: "
                f"feature value {arr[i, j]} is not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "features", arr)

    @property
    def n(self):
        return self.features.shape[0]


def resolve_dataset(name_or_path):
    """The directory of a dataset argument, which is either a directory or a
    name under the data root ($FAIRGRAPH_DATA, falling back to ./datasets)."""
    if os.path.isdir(name_or_path):
        return name_or_path
    root = os.environ.get("FAIRGRAPH_DATA", "datasets")
    candidate = os.path.join(root, name_or_path)
    if os.path.isdir(candidate):
        return candidate
    raise DatasetParseError(
        f"dataset {name_or_path!r} not found (looked in {candidate!r}; "
        f"set FAIRGRAPH_DATA or pass a directory)")


MISSING_TEXT = frozenset({"", "nan", "none", "na"})  # stripped, lower-cased


def _missing(cells):
    """Which cells of a column hold no value: empty, or 'nan', 'none' or
    'na' in any case, around any whitespace."""
    return np.fromiter(map(MISSING_TEXT.__contains__, map(str.lower, map(str.strip, cells))),
                       bool, len(cells))


def _equals(cells, value):
    """Which cells of a column, stripped, read as str(value); a label or
    sensitive cell maps to 1 exactly there."""
    return np.fromiter(map(str(value).__eq__, map(str.strip, cells)), bool, len(cells))


def _feature_column(cells):
    """A feature column as float64, a missing cell read as 0.0 and any
    other as float() reads it, and the index of the first cell float()
    rejects (None if there is none). The column converts in one pass; only
    one with a missing cell or a NaN is read again cell by cell."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        if not np.isnan(values).any():
            return values, None
    except ValueError:
        pass
    values = np.zeros(len(cells))
    for i in np.flatnonzero(~_missing(cells)):
        try:
            values[i] = float(cells[i])
        except ValueError:
            return values, int(i)
    return values, None


def load_dataset(path):
    """Returns (Graph, NodeTable) from the dataset directory `path`.
    Features stay raw; the encoder standardizes them with its training
    rows' statistics."""
    meta_path = os.path.join(path, "meta.json")
    features_path = os.path.join(path, "features.csv")
    edges_path = os.path.join(path, "edges.txt")
    meta = read_json(meta_path, "meta file", DatasetParseError)
    if not isinstance(meta, dict):
        raise DatasetParseError(f"meta file {meta_path} must hold a JSON object, "
                                f"got {type(meta).__name__}")
    for key in ("label_col", "sensitive_col", "positive_value",
                "sensitive_positive_value"):
        if key not in meta:
            raise DatasetParseError(f"meta file missing key {key!r}")
    for key in ("drop_cols", "feature_cols"):
        cols = meta.get(key, [])
        if not (isinstance(cols, list) and all(isinstance(c, str) for c in cols)):
            raise DatasetParseError(f"meta key {key!r} must be a list of column names, "
                                    f"got {cols!r}")
    if meta["label_col"] == meta["sensitive_col"]:
        raise DatasetParseError(f"meta label_col and sensitive_col both name "
                                f"{meta['label_col']!r}")
    both = sorted(set(meta.get("drop_cols", [])) & set(meta.get("feature_cols", [])))
    if both:
        raise DatasetParseError(f"meta drop_cols and feature_cols both name {both}")

    try:
        with open(features_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(filter(None, reader))
    except (OSError, StopIteration, csv.Error, ValueError) as exc:
        raise DatasetParseError(f"cannot read {features_path}: {exc}") from exc
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DatasetParseError(f"{features_path}: column names {repeated} repeat")
    for col in (meta["label_col"], meta["sensitive_col"]):
        if col not in header:
            raise MissingColumnError(f"column {col!r} not in {header}")

    # a misspelt drop column would leave its column, the sensitive one
    # perhaps, among the features
    for key, kind in (("drop_cols", "drop"), ("feature_cols", "feature")):
        missing = [c for c in meta.get(key, []) if c not in header]
        if missing:
            raise MissingColumnError(f"{kind} columns {missing} not in header")
    drop = set(meta.get("drop_cols", []))
    if "feature_cols" in meta:
        feature_cols = meta["feature_cols"]
    else:
        feature_cols = [c for c in header if c != meta["label_col"] and c not in drop]
    if not feature_cols:
        raise DatasetParseError("meta selects no feature columns")
    if meta["label_col"] in feature_cols:
        raise DatasetParseError(
            f"meta feature_cols names the label column {meta['label_col']!r}")

    # every check below reads whole columns; the first fault in row-major
    # order is the one raised, as if the rows were read one by one
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    uneven = np.flatnonzero(width != len(header))
    n = int(uneven[0]) if len(uneven) else len(rows)
    columns = dict(zip(header, zip(*rows[:n]))) if n else dict.fromkeys(header, ())
    faults = []  # (row, rank in the row, error) of each column's first fault
    sens_cells = columns[meta["sensitive_col"]]
    undefined = np.flatnonzero(_missing(sens_cells))
    if len(undefined):
        faults.append((undefined[0], -1, NonBinarySensitiveError(
            f"row {undefined[0] + 2}: sensitive attribute must be defined for every node")))
    sensitive = _equals(sens_cells, meta["sensitive_positive_value"]).astype(np.int64)
    features = np.empty((n, len(feature_cols)), dtype=np.float64)
    for j, col in enumerate(feature_cols):
        if col == meta["sensitive_col"]:
            # keep the sensitive attribute as its mapped 0/1 encoding so
            # categorical values ('Male'/'Female') load without fuss
            features[:, j] = sensitive
            continue
        features[:, j], bad = _feature_column(columns[col])
        if bad is not None:
            faults.append((bad, j, DatasetParseError(
                f"row {bad + 2}, column {col!r}: not numeric: {columns[col][bad]!r}")))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    if n < len(rows):
        raise DatasetParseError(f"{features_path}: row {n + 2} has {width[n]} fields, "
                                f"expected {len(header)}")
    label_cells = columns[meta["label_col"]]
    labelled = ~_missing(label_cells)
    labels_raw = np.where(labelled, _equals(label_cells, meta["positive_value"]), UNKNOWN)
    sens_values = set(map(str.strip, sens_cells))
    if len(sens_values) > 2:
        raise NonBinarySensitiveError(
            f"sensitive column {meta['sensitive_col']!r} has "
            f"{len(sens_values)} distinct values; mapping one of them to 1 "
            "would silently merge the rest")
    label_values = {v for v in set(map(str.strip, label_cells)) if v.lower() not in MISSING_TEXT}
    for col, key, seen in ((meta["label_col"], "positive_value", label_values),
                           (meta["sensitive_col"], "sensitive_positive_value", sens_values)):
        if seen and str(meta[key]) not in seen:
            shown = sorted(seen)
            raise DatasetParseError(
                f"column {col!r}: no cell equals its {key} {meta[key]!r}, so every "
                f"node would map to 0; it holds {shown[:5]}"
                + (f" and {len(shown) - 5} more" if len(shown) > 5 else ""))

    try:
        pairs = load_edge_list(edges_path)
    except (OSError, ValueError) as exc:
        raise DatasetParseError(f"cannot read {edges_path}: {exc}") from exc
    try:
        graph, _ = Graph.from_edges_dedup(n, pairs)
    except ValueError as exc:
        raise DatasetParseError(f"bad edge list: {exc}") from exc

    table = NodeTable(features=features,
                      labels=NodeLabels.create(sensitive=sensitive,
                                               class_label=labels_raw),
                      feature_names=tuple(feature_cols))
    return graph, table


# ---------------------------------------------------------------------------
# synthetic generator

@dataclass(frozen=True)
class SynthConfig:
    n: int
    target_hr_c: float
    target_hr_s: float
    mean_degree: float = 6.0
    feature_dim: int = 8
    class_signal: float = 1.0
    sensitive_signal: float = 0.5
    seed: int = 0

    def __post_init__(self):
        seed = _whole_number("seed", self.seed)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)
        for name in ("class_signal", "sensitive_signal"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value}")
        if not (0.0 < self.target_hr_c < 1.0 and 0.0 < self.target_hr_s < 1.0):
            raise InfeasibleError("homophily targets must lie strictly inside (0, 1)")
        if self.n < 8:
            raise InfeasibleError("need at least 8 nodes")
        if not self.mean_degree >= 0:
            raise InfeasibleError(f"mean_degree must be >= 0, got {self.mean_degree}")
        edge_plan(self)  # raises if the targets are unreachable


def block_sizes(cfg: SynthConfig):
    """Node counts per (y, s) block, in BLOCK_ORDER: each class holds half
    the nodes and each group half of its class, rounded."""
    n1 = int(round(cfg.n * 0.5))
    n0 = cfg.n - n1
    n01 = int(round(n0 * 0.5))
    n11 = int(round(n1 * 0.5))
    return {(0, 0): n0 - n01, (0, 1): n01, (1, 0): n1 - n11, (1, 1): n11}


def _block_pairs(sizes):
    """(b1, b2, edge type, node pair count) for every unordered pair of
    blocks, a block paired with itself included, in BLOCK_ORDER order."""
    for i, b1 in enumerate(BLOCK_ORDER):
        for b2 in BLOCK_ORDER[i:]:
            n_pairs = (sizes[b1] * (sizes[b1] - 1) // 2 if b1 == b2
                       else sizes[b1] * sizes[b2])
            yield b1, b2, classify_edge(b1[0], b2[0], b1[1], b2[1]).name, n_pairs


def edge_plan(cfg: SynthConfig):
    """Per-category Bernoulli rates whose expected census hits the targets.

    Splits the expected edge mass M = n*mean_degree/2 across the four pair
    categories as w_I=hc*hs, w_II=hc*(1-hs), w_III=(1-hc)*hs,
    w_IV=(1-hc)*(1-hs), which satisfies E[N_c]/E[m]=hc and E[N_s]/E[m]=hs.
    """
    pair_counts = {"I": 0, "II": 0, "III": 0, "IV": 0}
    for _, _, cat, n_pairs in _block_pairs(block_sizes(cfg)):
        pair_counts[cat] += n_pairs
    hc, hs = cfg.target_hr_c, cfg.target_hr_s
    mass = cfg.n * cfg.mean_degree / 2.0
    weights = {"I": hc * hs, "II": hc * (1 - hs), "III": (1 - hc) * hs,
               "IV": (1 - hc) * (1 - hs)}
    rates = {}
    for cat, w in weights.items():
        wanted = w * mass
        if pair_counts[cat] == 0:
            raise InfeasibleError(
                f"no node pairs of category {cat} exist but {wanted:.1f} edges "
                "are required; adjust n or the targets")
        p = wanted / pair_counts[cat]
        if p > 1.0:
            raise InfeasibleError(
                f"category {cat} needs rate {p:.3f} > 1; lower mean_degree "
                "or move the targets")
        rates[cat] = p
    return rates, pair_counts


def synth_generate(cfg: SynthConfig):
    """Returns (Graph, NodeTable) with block-planted edges and Gaussian
    features carrying class and sensitive signal."""
    rng = np.random.default_rng(cfg.seed)
    sizes = block_sizes(cfg)
    rates, _ = edge_plan(cfg)

    starts = {}
    offset = 0
    y = np.zeros(cfg.n, dtype=np.int64)
    s = np.zeros(cfg.n, dtype=np.int64)
    for block in BLOCK_ORDER:
        starts[block] = offset
        y[offset:offset + sizes[block]] = block[0]
        s[offset:offset + sizes[block]] = block[1]
        offset += sizes[block]

    edges = []
    for b1, b2, cat, n_pairs in _block_pairs(sizes):
        if n_pairs == 0:
            continue
        count = int(rng.binomial(n_pairs, rates[cat]))
        if count == 0:
            continue
        chosen = np.sort(rng.choice(n_pairs, size=count, replace=False))
        if b1 == b2:
            edges.append(starts[b1] + decode_pairs(sizes[b1], chosen))
        else:
            edges.append(np.stack([starts[b1] + chosen // sizes[b2],
                                   starts[b2] + chosen % sizes[b2]], axis=1))

    graph = Graph.from_edges(cfg.n, np.concatenate(edges) if edges else [])
    d = cfg.feature_dim
    u_c = np.ones(d) / np.sqrt(d)
    u_s = np.array([1.0 if j % 2 == 0 else -1.0 for j in range(d)]) / np.sqrt(d)
    features = (rng.standard_normal((cfg.n, d))
                + np.outer(2.0 * y - 1.0, cfg.class_signal * u_c)
                + np.outer(2.0 * s - 1.0, cfg.sensitive_signal * u_s))
    table = NodeTable(features=features,
                      labels=NodeLabels.create(sensitive=s, class_label=y),
                      feature_names=tuple(f"feat_{j}" for j in range(d)))
    return graph, table


# ---------------------------------------------------------------------------
# readers and writers

def read_json(path, what, error=ConfigError):
    """The JSON document in the UTF-8 file `path`. A file that cannot be
    opened, decoded or parsed, nesting too deep for the parser included,
    raises `error`, naming `what` and `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def make_dir(path):
    """os.makedirs(path, exist_ok=True); an OSError is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def atomic_open(path):
    """Text file handle on a temporary file beside `path`; on a clean exit
    the temporary is moved over `path` with os.replace. A writer that raises
    leaves the old file, and no temporary, behind; an OSError is a
    ConfigError naming `path`. Lines are written as given (no newline
    translation), which is what csv writers expect."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_edge_list(path):
    """Parse an edge file: one edge per line, two ids separated by
    whitespace or a comma. Blank lines and comment lines, whose first
    non-blank character is '#', are skipped. An id is anything float()
    reads as a whole number that fits in int64 ('3', '3.0', '1e0').

    Returns the (u, v) pairs as a (k, 2) int64 array in file order;
    deduplication happens in Graph.from_edges_dedup so the caller sees the
    warning count. The whole file is parsed at once; a line that breaks the
    rules is named, as path:lineno, by a second pass over the lines.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ids = _edge_ids(fh.read())
    except UnicodeDecodeError:
        ids = None
    if ids is None or not (np.isfinite(ids) & (np.trunc(ids) == ids)).all():
        _raise_first_bad_line(path)
    if not ((ids >= -2.0 ** 63) & (ids < 2.0 ** 63)).all():
        raise ValueError(f"{path}: node ids must fit in int64")
    return ids.astype(np.int64)


def _edge_ids(text):
    """The ids on the non-comment lines of an edge file's text as a (k, 2)
    float64 array, each the value float() reads; None if a line holds other
    than two ids or an id float() rejects."""
    if "#" in text:
        text = re.sub(r"^[^\S\n]*#.*$", "", text, flags=re.MULTILINE)
    text = text.replace(",", " ")
    if not text or text.isspace():
        return np.zeros((0, 2))
    # np.loadtxt reads digits, signs, dots and exponents as float() does,
    # and splits lines on spaces and tabs only; any other text takes the
    # exact path below
    if not text.encode().translate(None, b"0123456789+-.eE \t\n"):
        try:
            ids = np.loadtxt(io.StringIO(text), comments=None, ndmin=2)
        except ValueError:
            return None
        return ids if ids.shape[1] == 2 else None
    lines = list(map(str.split, text.split("\n")))
    counts = np.fromiter(map(len, lines), np.intp, len(lines))
    if np.count_nonzero((counts != 0) & (counts != 2)):
        return None
    try:
        return np.fromiter(map(float, chain.from_iterable(lines)), np.float64).reshape(-1, 2)
    except ValueError:
        return None


def _raise_first_bad_line(path):
    """Raise the ValueError that names, as path:lineno, the first line of
    `path` that is not blank, a comment or two whole-number ids. The file
    is decoded line by line, so a bad line ahead of undecodable bytes is
    the error, not the bytes."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                whole = all(float(p).is_integer() for p in parts)
            except ValueError:
                whole = False
            if not whole:
                raise ValueError(f"{path}:{lineno}: node ids must be whole numbers: {line!r}")


def write_edges(path, graph: Graph):
    """Write the graph's edges as `u v` lines in `edge_array` order, the
    edges.txt format load_edge_list reads; the file is replaced atomically."""
    with atomic_open(path) as fh:
        fh.writelines(f"{u} {v}\n" for u, v in graph.edge_array.tolist())


def write_dataset(dirpath, graph: Graph, table: NodeTable):
    """Write the three-file dataset layout and return its directory, which
    load_dataset reads back. Each file is replaced atomically."""
    make_dir(dirpath)
    with atomic_open(os.path.join(dirpath, "features.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.feature_names) + ["label", "sensitive"])
        for i in range(table.n):
            label = table.labels.class_label[i]
            writer.writerow([repr(float(v)) for v in table.features[i]]
                            + ["" if label == UNKNOWN else int(label),
                               int(table.labels.sensitive[i])])
    write_edges(os.path.join(dirpath, "edges.txt"), graph)
    with atomic_open(os.path.join(dirpath, "meta.json")) as fh:
        json.dump({"label_col": "label", "sensitive_col": "sensitive",
                   "positive_value": 1, "sensitive_positive_value": 1,
                   "drop_cols": ["sensitive"]}, fh, indent=2)
    return dirpath


def export_embeddings(path, c_values, e_values, labels: NodeLabels, split_names):
    """CSV export: node id, split, y, s, then content then environment
    columns. Floats are written with repr so a reload is exact; the file is
    replaced atomically."""
    c_values = np.asarray(c_values, dtype=np.float64)
    e_values = np.asarray(e_values, dtype=np.float64)
    n = c_values.shape[0]
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "split", "y", "s"]
                        + [f"c_{j}" for j in range(c_values.shape[1])]
                        + [f"e_{j}" for j in range(e_values.shape[1])])
        for i in range(n):
            y_i = labels.class_label[i]
            writer.writerow([i, split_names[i],
                             "" if y_i == UNKNOWN else int(y_i),
                             int(labels.sensitive[i])]
                            + [repr(float(v)) for v in c_values[i]]
                            + [repr(float(v)) for v in e_values[i]])
