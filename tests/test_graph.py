"""Graph construction, taxonomy, homophily, editing, and the exact shift
identities, with brute-force oracles at every step."""

import dataclasses
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fairgraph.autodiff import NeighborAggregator
from fairgraph.data import load_edge_list
from fairgraph.errors import (
    DegenerateEditError,
    InfeasibleError,
    InvalidTargetError,
    UndefinedRatioError,
)
from fairgraph.graph import (
    EdgeCensus,
    EdgeType,
    Graph,
    NodeLabels,
    classify_edge,
    decode_pairs,
    edge_census,
    edge_types,
    fair_edge_remove,
    homophily_ratios,
    minimal_deletions,
    predict_ratio_shift,
    single_edge_effect,
)
from fairgraph.verify import random_labeled_graph


def naive_ratios(g, labels):
    """Independent oracle: double loop over the raw edge list."""
    y = labels.class_label
    s = labels.sensitive
    same_c = same_s = 0
    for u, v in g.edges:
        if y[u] == y[v]:
            same_c += 1
        if s[u] == s[v]:
            same_s += 1
    return same_c / g.m, same_s / g.m


# ---------------------------------------------------------------------------
# construction

def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])


def test_dedup_counts_duplicates_and_self_loops():
    g, dropped = Graph.from_edges_dedup(4, [(0, 1), (1, 0), (2, 2), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert dropped == 3


def has_edge(g, u, v):
    """Whether the pair is an edge, given in either order."""
    return (min(u, v), max(u, v)) in g.edges


def test_adjacency_is_symmetric_closure():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
    adj = NeighborAggregator(g).adj
    neighbours = tuple(tuple(adj.indices[adj.indptr[v]:adj.indptr[v + 1]].tolist())
                       for v in range(g.n))
    assert neighbours == ((1, 3), (0, 2), (1,), (0,))
    assert has_edge(g, 1, 0) and has_edge(g, 0, 1)
    assert not has_edge(g, 2, 3)


def test_load_edge_list_formats(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n2,3\n# comment\n\n1 2\n3.0 1e0\n")
    pairs = load_edge_list(path)
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [[0, 1], [2, 3], [1, 2], [3, 1]]
    path.write_text("# no edges\n")
    assert load_edge_list(path).shape == (0, 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        load_edge_list(bad)
    # ids that are not finite whole numbers are rejected, never truncated
    for text in ("0 1\n0 inf\n", "0 1\n0 1.5\n", "0 1\nnan 2\n", "0 1\n0 x\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{bad}:2")):
            load_edge_list(bad)
    bad.write_text("0 1\n0 1e30\n")
    with pytest.raises(ValueError, match="fit in int64"):
        load_edge_list(bad)


def test_edge_array_is_canonical_sorted_and_read_only():
    g = Graph.from_edges(5, [(4, 2), (0, 3), (1, 0), (3, 2)])
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "edge_array"]
    assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (4, 2)
    assert g.edge_array.tolist() == [[0, 1], [0, 3], [2, 3], [2, 4]]
    assert g.edges == ((0, 1), (0, 3), (2, 3), (2, 4))
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 1
    assert Graph.from_edges(3, []).edge_array.shape == (0, 2)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 2 ** 70)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1, 2)])


def test_node_ids_must_be_integers():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    # each would otherwise truncate or parse to an edge of g
    for bad in ([(0.7, 2.2)], [(0.5, 1.9)], [(0.0, 1.0)], [("1", "2")], [(0, None)],
                [(False, True)], [(True, 2)], [(2, 3), [0, np.True_]]):
        for call in (lambda: Graph.from_edges(4, bad),
                     lambda: Graph.from_edges_dedup(4, bad),
                     lambda: g.remove_edges(bad)):
            with pytest.raises(ValueError, match="node ids must be int64 integers"):
                call()
    assert Graph.from_edges(4, np.array([[1, 0]], dtype=np.uint8)).edges == ((0, 1),)
    with pytest.raises(ValueError, match="got uint64 values"):
        Graph.from_edges(4, np.array([[0, 2 ** 63]], dtype=np.uint64))
    assert Graph.from_edges(4, []).m == Graph.from_edges_dedup(4, [])[0].m == 0


def test_decode_pairs_matches_combinations_order():
    for n in range(2, 31):
        want = list(itertools.combinations(range(n), 2))
        got = decode_pairs(n, np.arange(len(want)))
        assert got.dtype == np.int64
        assert list(map(tuple, got.tolist())) == want


def test_remove_edges_rejects_bad_pairs_and_keeps_graph():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    before = g.edge_array.copy()
    # (0, 6) would encode as 0*4+6 == 1*4+2, the code of edge (1, 2)
    for bad in ([(0, 6)], [(6, 0)], [(-1, 2)], [(2, -3)], [(0, 2)], [(1, 1)],
                [(2, 1), (0, 3)]):
        with pytest.raises(ValueError):
            g.remove_edges(bad)
        assert np.array_equal(g.edge_array, before)
    assert g.remove_edges([(2, 1), (1, 2)]).edges == ((0, 1), (2, 3))
    assert g.remove_edges([]).edges == g.edges


def test_labels_validation():
    with pytest.raises(ValueError):
        NodeLabels.create(sensitive=[0, 2])
    with pytest.raises(ValueError, match="sensitive"):
        NodeLabels.create(sensitive=[0, -1])
    for bad in ([2, 0], [-2, 0]):
        with pytest.raises(ValueError, match="class_label"):
            NodeLabels.create(sensitive=[0, 1], class_label=bad)
        with pytest.raises(ValueError, match="class_label"):
            NodeLabels.create(sensitive=[0, 1], class_label=[-1, -1]).with_pseudo(bad)
    with pytest.raises(ValueError, match="one length"):
        NodeLabels.create(sensitive=[0, 1], class_label=[1, 0, 1])
    for short in ([0], 0, [0, 1, 1]):  # never broadcast over the unknown nodes
        with pytest.raises(ValueError, match="one pseudo-label per node"):
            NodeLabels.create(sensitive=[0, 1], class_label=[1, -1]).with_pseudo(short)
    assert NodeLabels.create(sensitive=[0, 1]).class_label.tolist() == [-1, -1]


def test_with_pseudo_keeps_ground_truth_and_fills_the_rest():
    labels = NodeLabels.create(sensitive=[0, 1, 1, 0], class_label=[1, -1, 0, -1])
    full = labels.with_pseudo([0, 1, 1, 0])
    assert full.class_label.tolist() == [1, 1, 0, 0]
    assert full.sensitive.tolist() == [0, 1, 1, 0]
    assert labels.class_label.tolist() == [1, -1, 0, -1]
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert edge_census(g, full) == EdgeCensus(count_i=0, count_ii=2, count_iii=1,
                                              count_iv=0)
    # an incomplete labelling has no taxonomy, whether or not pseudo-labels
    # filled part of it
    for partial, missing in ((labels, 2), (labels.with_pseudo([0, 1, 1, -1]), 1)):
        for count in (lambda: edge_types(g, partial),
                      lambda: edge_census(g, partial),
                      lambda: fair_edge_remove(g, partial)):
            with pytest.raises(ValueError, match=f"^{missing} nodes have no class label"):
                count()


# ---------------------------------------------------------------------------
# taxonomy

def test_classify_edge_examples():
    assert classify_edge(0, 0, 1, 1) is EdgeType.I
    assert classify_edge(1, 0, 0, 0) is EdgeType.III
    assert classify_edge(1, 0, 0, 1) is EdgeType.IV
    assert classify_edge(1, 1, 0, 1) is EdgeType.II
    with pytest.raises(ValueError):
        classify_edge(2, 0, 0, 0)


def test_taxonomy_is_a_partition():
    # every (y_u, y_v, s_u, s_v) combination lands in exactly one type
    for combo in itertools.product((0, 1), repeat=4):
        t = classify_edge(*combo)
        assert t in EdgeType


def test_edge_types_agree_with_classify_edge():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g, labels = random_labeled_graph(rng, max_n=12)
        y, s = labels.class_label.tolist(), labels.sensitive.tolist()
        types = edge_types(g, labels)
        assert types.shape == (g.m,)
        assert [EdgeType(t) for t in types.tolist()] == \
            [classify_edge(y[u], y[v], s[u], s[v]) for u, v in g.edges]
        assert edge_census(g, labels) == EdgeCensus(
            *(int(np.count_nonzero(types == t)) for t in EdgeType))


def test_census_counts_sum_and_recover_nc_ns():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g, labels = random_labeled_graph(rng, max_n=12)
        c = edge_census(g, labels)
        assert c.count_i + c.count_ii + c.count_iii + c.count_iv == g.m
        assert c.n_c == c.count_i + c.count_ii
        assert c.n_s == c.count_i + c.count_iii


# ---------------------------------------------------------------------------
# homophily ratios

def test_all_same_labels_gives_ones():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    labels = NodeLabels.create(sensitive=[1, 1, 1], class_label=[0, 0, 0])
    assert homophily_ratios(g, labels) == (1.0, 1.0)


def test_ratios_match_naive_double_loop():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, labels = random_labeled_graph(rng, max_n=20)
        assert homophily_ratios(g, labels) == naive_ratios(g, labels)


def test_empty_graph_ratio_error():
    g = Graph.from_edges(3, [])
    labels = NodeLabels.create(sensitive=[0, 1, 0], class_label=[0, 1, 1])
    with pytest.raises(UndefinedRatioError):
        homophily_ratios(g, labels)


def test_empty_census_ratios_are_undefined():
    empty = EdgeCensus(count_i=0, count_ii=0, count_iii=0, count_iv=0)
    for ratio in ("hr_c", "hr_s"):
        with pytest.raises(UndefinedRatioError):
            getattr(empty, ratio)
    census = EdgeCensus(count_i=3, count_ii=1, count_iii=2, count_iv=2)
    assert (census.hr_c, census.hr_s) == (4 / 8, 5 / 8)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    g, labels = random_labeled_graph(rng, max_n=12)
    perm = rng.permutation(g.n)
    g2 = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    inv = np.empty(g.n, dtype=np.int64)
    inv[perm] = np.arange(g.n)
    labels2 = NodeLabels.create(sensitive=labels.sensitive[inv],
                                class_label=labels.class_label[inv])
    assert homophily_ratios(g, labels) == homophily_ratios(g2, labels2)
    assert edge_census(g, labels) == edge_census(g2, labels2)


# ---------------------------------------------------------------------------
# fair edge removal

def four_node_case():
    # (y, s) = a(0,0) b(1,0) c(1,1) d(0,1), square a-b-c-d-a
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    labels = NodeLabels.create(sensitive=[0, 0, 1, 1], class_label=[0, 1, 1, 0])
    return g, labels


def test_fair_edge_remove_hand_case():
    g, labels = four_node_case()
    edited, report = fair_edge_remove(g, labels)
    assert set(report.removed_edges) == {(0, 1), (2, 3)}
    assert (report.hr_c_before, report.hr_s_before) == (0.5, 0.5)
    assert (report.hr_c_after, report.hr_s_after) == (1.0, 0.0)
    assert report.census_after.count_iii == 0
    assert edited.m == report.census_before.m - len(report.removed_edges)


def test_no_type_iii_is_a_fixed_point():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    labels = NodeLabels.create(sensitive=[0, 1, 0], class_label=[0, 0, 0])
    edited, report = fair_edge_remove(g, labels)
    assert edited.edges == g.edges
    assert report.removed_edges == ()


def test_degenerate_edit_raises_and_leaves_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    labels = NodeLabels.create(sensitive=[0, 0, 0], class_label=[0, 1, 0])
    with pytest.raises(DegenerateEditError):
        fair_edge_remove(g, labels)
    assert g.m == 2 and g.edges == ((0, 1), (1, 2))


def test_remove_is_idempotent_and_monotone():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g, labels = random_labeled_graph(rng, max_n=12)
        try:
            once, report = fair_edge_remove(g, labels)
        except DegenerateEditError:
            continue
        twice, report2 = fair_edge_remove(once, labels)
        assert twice.edges == once.edges and report2.removed_edges == ()
        assert report.hr_c_after >= report.hr_c_before - 1e-15
        assert report.hr_s_after <= report.hr_s_before + 1e-15


def test_edge_tuples_are_pairs_of_python_ints():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g, labels = random_labeled_graph(rng, max_n=40)
        assert g.edges == tuple(map(tuple, g.edge_array.tolist()))
        try:
            _, report = fair_edge_remove(g, labels)
        except DegenerateEditError:
            continue
        is_iii = edge_types(g, labels) == EdgeType.III
        assert report.removed_edges == tuple(map(tuple, g.edge_array[is_iii].tolist()))
        for edges in (g.edges, report.removed_edges):
            assert all(len(e) == 2 and all(type(v) is int for v in e) for e in edges)


# ---------------------------------------------------------------------------
# shift identities

def test_predict_ratio_shift_examples():
    census = EdgeCensus(count_i=3, count_ii=3, count_iii=3, count_iv=1)  # m=10, N_c=6
    dc, ds = predict_ratio_shift(census, 3)
    assert dc == pytest.approx(18 / 70, abs=1e-15)
    assert predict_ratio_shift(census, 0) == (0.0, 0.0)
    all_sens_same = EdgeCensus(count_i=6, count_ii=0, count_iii=4, count_iv=0)  # N_s=m
    assert predict_ratio_shift(all_sens_same, 2)[1] == 0.0


def test_predict_ratio_shift_errors():
    census = EdgeCensus(count_i=1, count_ii=0, count_iii=1, count_iv=0)
    with pytest.raises(ZeroDivisionError):
        predict_ratio_shift(census, 2)
    census2 = EdgeCensus(count_i=3, count_ii=0, count_iii=1, count_iv=0)
    with pytest.raises(InfeasibleError):
        predict_ratio_shift(census2, 2)


def test_shift_identity_exact_on_random_subsets():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        g, labels = random_labeled_graph(rng, max_n=14)
        y = labels.class_label
        s = labels.sensitive
        census = edge_census(g, labels)
        type_iii = [e for e in g.edges if y[e[0]] != y[e[1]] and s[e[0]] == s[e[1]]]
        if not type_iii or len(type_iii) == g.m:
            continue
        k = int(rng.integers(1, len(type_iii) + 1))
        picks = rng.choice(len(type_iii), size=k, replace=False)
        edited = g.remove_edges([type_iii[i] for i in picks])
        hr_c0, hr_s0 = homophily_ratios(g, labels)
        hr_c1, hr_s1 = homophily_ratios(edited, labels)
        dc, ds = predict_ratio_shift(census, k)
        assert abs((hr_c1 - hr_c0) - dc) < 1e-12
        assert abs((hr_s1 - hr_s0) - ds) < 1e-12
        checked += 1


def deletion_sign_oracle(g, labels, edge):
    """Independent oracle: actually delete the edge and recount."""
    hr_c0, hr_s0 = homophily_ratios(g, labels)
    edited = g.remove_edges([edge])
    hr_c1, hr_s1 = homophily_ratios(edited, labels)
    dc, ds = hr_c1 - hr_c0, hr_s1 - hr_s0
    return ((dc > 1e-15) - (dc < -1e-15), (ds > 1e-15) - (ds < -1e-15))


def test_single_edge_effect_type_iii():
    census = EdgeCensus(count_i=4, count_ii=2, count_iii=4, count_iv=0)
    assert (census.m, census.n_c, census.n_s) == (10, 6, 8)
    assert single_edge_effect(census, EdgeType.III) == (1, -1)


def test_single_edge_effect_type_ii_matches_deletion_oracle():
    # Build a graph realizing m=10, N_c=6, N_s=8 with a Type II edge;
    # the expected signs are frozen from deletion_sign_oracle: deleting a
    # same-label edge lowers hr_c, so the census (6, 8, 10) gives (-1, +1).
    census = EdgeCensus(count_i=4, count_ii=2, count_iii=4, count_iv=0)
    rng = np.random.default_rng(2)
    found = False
    while not found:
        g, labels = random_labeled_graph(rng, max_n=10, max_m=16, min_m=2)
        c = edge_census(g, labels)
        if c.count_ii == 0:
            continue
        y = labels.class_label
        s = labels.sensitive
        edge = next(e for e in g.edges
                    if y[e[0]] == y[e[1]] and s[e[0]] != s[e[1]])
        want = single_edge_effect(c, EdgeType.II)
        assert deletion_sign_oracle(g, labels, edge) == want
        found = True
    assert single_edge_effect(census, EdgeType.II) == (-1, 1)


def test_single_edge_effect_type_i_saturated():
    census = EdgeCensus(count_i=3, count_ii=2, count_iii=0, count_iv=0)  # N_c = m
    assert single_edge_effect(census, EdgeType.I)[0] == 0


def test_single_edge_effect_sign_table_exhaustive():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g, labels = random_labeled_graph(rng, max_n=10, max_m=16, min_m=2)
        census = edge_census(g, labels)
        y = labels.class_label
        s = labels.sensitive
        for e in g.edges:
            t = classify_edge(int(y[e[0]]), int(y[e[1]]), int(s[e[0]]), int(s[e[1]]))
            observed = deletion_sign_oracle(g, labels, e)
            assert observed == single_edge_effect(census, t)
            if t is not EdgeType.III:
                assert not (observed[0] > 0 and observed[1] < 0)


# ---------------------------------------------------------------------------
# budgeted deletions

def test_minimal_deletions_hand_case():
    census = EdgeCensus(count_i=4, count_ii=2, count_iii=4, count_iv=0)
    # m=10, N_c=6, N_s=8: thresholds give k_c*=2, k_s*=4
    assert minimal_deletions(census, 0.75, 0.7) == 4


def test_minimal_deletions_single_step():
    census = EdgeCensus(count_i=8, count_ii=1, count_iii=1, count_iv=0)
    # N_c = m-1 = 9; one deletion saturates hr_c
    hr_c = census.n_c / census.m
    assert minimal_deletions(census, hr_c + 1e-6, census.n_s / census.m - 1e-6) == 1


def test_minimal_deletions_infeasible_and_bad_targets():
    census = EdgeCensus(count_i=4, count_ii=2, count_iii=1, count_iv=0)
    with pytest.raises(InfeasibleError):
        minimal_deletions(census, 0.99, 0.01)
    with pytest.raises(InvalidTargetError):
        minimal_deletions(census, 0.2, 0.5)  # tau_c below current hr_c
    with pytest.raises(InvalidTargetError):
        minimal_deletions(census, 0.99, 0.99)  # tau_s above current hr_s


# ---------------------------------------------------------------------------
# exhaustive deletion oracle

@dataclass(frozen=True)
class DeletionSetSummary:
    """Exhaustive scan over all k-subsets of edges (test oracle)."""

    k: int
    n_subsets: int
    max_hr_c: float
    min_hr_s: float
    achieves_predicted: bool


def oracle_best_deletion_sets(g: Graph, labels: NodeLabels, k: int) -> DeletionSetSummary:
    """Independent oracle: enumerate every k-subset of edges and report the
    best reachable ratios. Refuses graphs with m > 16."""
    m = g.m
    if m > 16:
        raise ValueError(f"exhaustive deletion scan limited to m <= 16, got {m}")
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m so ratios stay defined")
    y = labels.class_label
    s = labels.sensitive
    ea = g.edge_array
    yc = (y[ea[:, 0]] == y[ea[:, 1]]).astype(int)
    ys = (s[ea[:, 0]] == s[ea[:, 1]]).astype(int)
    census = EdgeCensus(
        count_i=int(np.sum(yc & ys)), count_ii=int(np.sum(yc & (1 - ys))),
        count_iii=int(np.sum((1 - yc) & ys)), count_iv=int(np.sum((1 - yc) & (1 - ys))))
    n_c, n_s = census.n_c, census.n_s

    predicted = None
    if k <= census.count_iii:
        predicted = (Fraction(n_c, m - k), Fraction(n_s - k, m - k))

    best_c = Fraction(-1)
    best_s = Fraction(2)
    achieves = False
    n_subsets = 0
    for subset in itertools.combinations(range(m), k):
        n_subsets += 1
        dc = sum(yc[i] for i in subset)
        ds = sum(ys[i] for i in subset)
        hr_c = Fraction(n_c - dc, m - k)
        hr_s = Fraction(n_s - ds, m - k)
        best_c = max(best_c, hr_c)
        best_s = min(best_s, hr_s)
        if predicted is not None and (hr_c, hr_s) == predicted:
            achieves = True
    return DeletionSetSummary(k=k, n_subsets=n_subsets, max_hr_c=float(best_c),
                              min_hr_s=float(best_s), achieves_predicted=achieves)


def test_oracle_k_zero_is_identity():
    g, labels = four_node_case()
    summary = oracle_best_deletion_sets(g, labels, 0)
    hr_c, hr_s = homophily_ratios(g, labels)
    assert summary.max_hr_c == hr_c and summary.min_hr_s == hr_s
    assert summary.achieves_predicted


def test_oracle_enumerates_all_subsets():
    rng = np.random.default_rng(4)
    g, labels = random_labeled_graph(rng, max_n=6, max_m=6, min_m=6)
    summary = oracle_best_deletion_sets(g, labels, 2)
    assert summary.n_subsets == 15


def test_oracle_type_iii_subsets_match_prediction():
    rng = np.random.default_rng(9)
    hits = 0
    while hits < 20:
        g, labels = random_labeled_graph(rng, max_n=8, max_m=12, min_m=3)
        census = edge_census(g, labels)
        if census.count_iii < 2 or census.count_iii >= g.m:
            continue
        k = 2
        summary = oracle_best_deletion_sets(g, labels, k)
        dc, ds = predict_ratio_shift(census, k)
        hr_c, hr_s = homophily_ratios(g, labels)
        # with enough Type III edges, the joint optimum is the predicted point
        assert summary.achieves_predicted
        assert summary.max_hr_c == pytest.approx(hr_c + dc, abs=1e-12)
        assert summary.min_hr_s == pytest.approx(hr_s + ds, abs=1e-12)
        hits += 1


def test_oracle_resource_limit():
    g = Graph.from_edges(18, [(i, i + 1) for i in range(17)])
    labels = NodeLabels.create(sensitive=[0, 1] * 9, class_label=[0] * 18)
    with pytest.raises(ValueError):
        oracle_best_deletion_sets(g, labels, 1)
