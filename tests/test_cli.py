"""Command-line surface: exit codes, JSON/stdout agreement, reproducibility."""

import csv
import json
import logging
import math
import os

import numpy as np
import pytest

import fairgraph.verify
from fairgraph.cli import _build_config, build_parser, main
from fairgraph.data import SynthConfig, load_dataset, resolve_dataset, synth_generate, \
    write_dataset
from fairgraph.errors import ConfigError, InfeasibleError
from fairgraph.graph import Graph, NodeLabels, edge_census, fair_edge_remove, \
    minimal_deletions
from fairgraph.losses import LossWeights, select_counterfactuals
from fairgraph.model import init_params, save_checkpoint
from fairgraph.pipeline import MODE_FLAGS, MODES, TrainConfig, grid_search, \
    run_experiment, split_dataset
from fairgraph.seeding import derive_seed
from fairgraph.verify import IDENTITY_TOL, budget_suite, identity_suite, run_suites, \
    sign_suite


@pytest.fixture()
def toy_dir(tmp_path):
    out = tmp_path / "data" / "toy"
    code = main(["synth", "--out", str(out), "--n", "150", "--hr-c", "0.55",
                 "--hr-s", "0.85", "--seed", "4"])
    assert code == 0
    return str(out)


def run_cli(args):
    return main(args)


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert main(["no-such-command"]) == 2
    assert main(["analyze"]) == 2  # missing required --dataset
    capsys.readouterr()


def test_analyze_stdout_matches_json(toy_dir, tmp_path, capsys):
    out_json = tmp_path / "analyze.json"
    assert main(["analyze", "--dataset", toy_dir, "--json", str(out_json)]) == 0
    stdout = capsys.readouterr().out
    doc = json.loads(out_json.read_text())
    assert f"hr_c {doc['hr_c']:.4f}" in stdout
    assert f"hr_s {doc['hr_s']:.4f}" in stdout
    assert f"edges {doc['census']['m']}" in stdout
    census = doc["census"]
    assert census["type_i"] + census["type_ii"] + census["type_iii"] \
        + census["type_iv"] == census["m"]


def test_analyze_and_edit_have_no_labels_or_checkpoint_flag(toy_dir, tmp_path, capsys):
    out = tmp_path / "edit"
    for command, output in (("analyze", []), ("edit", ["--out", str(out)])):
        # both label by the ground truth; phase 1's labels, model and
        # edited graph come from `pretrain` alone
        for flag in (["--labels", "pseudo"], ["--checkpoint", "c.json"],
                     ["--report", "pretrain_report.json"]):
            assert main([command, "--dataset", toy_dir, *flag, *output]) == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_dataset_exit_2(capsys):
    assert main(["analyze", "--dataset", "nowhere"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad_id", ["inf", "1.5"])
def test_analyze_non_integer_edge_id_exit_2(toy_dir, bad_id, capsys):
    with open(os.path.join(toy_dir, "edges.txt"), "a", encoding="utf-8") as fh:
        fh.write(f"0 {bad_id}\n")
    assert main(["analyze", "--dataset", toy_dir]) == 2
    assert "edges.txt" in capsys.readouterr().err


@pytest.mark.parametrize("meta", [
    5, None, {"drop_cols": 5}, {"feature_cols": 7}, {"feature_cols": []},
    {"drop_cols": [f"feat_{j}" for j in range(8)] + ["sensitive"]},
    {"feature_cols": ["feat_0", "label"]}, {"label_col": "sensitive"}],
    ids=["number", "null", "drop_cols-number", "feature_cols-number",
         "feature_cols-empty", "drop_cols-every-column", "feature_cols-label",
         "label_col-is-sensitive_col"])
def test_meta_of_the_wrong_shape_exit_2(toy_dir, meta, capsys):
    meta_path = os.path.join(toy_dir, "meta.json")
    if isinstance(meta, dict):
        with open(meta_path, encoding="utf-8") as fh:
            meta = {**json.load(fh), **meta}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    assert main(["analyze", "--dataset", toy_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "meta" in err


def test_repeated_column_name_exit_2(toy_dir, capsys):
    path = os.path.join(toy_dir, "features.csv")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("feat_1,", "feat_0,", 1))
    assert main(["analyze", "--dataset", toy_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "['feat_0']" in err


def test_labels_written_as_floats_exit_2(toy_dir, capsys):
    """`1.0`/`0.0` labels never equal the positive value 1, so they would
    all load as 0."""
    path = os.path.join(toy_dir, "features.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[-2:] = [cell and str(float(cell)) for cell in row[-2:]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["analyze", "--dataset", toy_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: column 'label': no cell equals its positive_value 1") \
        and err.count("\n") == 1 and "'0.0', '1.0'" in err


def test_edge_id_outside_the_node_range_exit_2(toy_dir, capsys):
    with open(os.path.join(toy_dir, "edges.txt"), "a", encoding="utf-8") as fh:
        fh.write("0 150\n")  # the toy dataset has nodes 0..149
    assert main(["analyze", "--dataset", toy_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad edge list") and err.count("\n") == 1


def test_dataset_by_name_under_the_data_root(toy_dir, tmp_path, monkeypatch, capsys):
    by_path, by_name = tmp_path / "path.json", tmp_path / "name.json"
    assert main(["analyze", "--dataset", toy_dir, "--json", str(by_path)]) == 0
    monkeypatch.setenv("FAIRGRAPH_DATA", os.path.dirname(toy_dir))
    monkeypatch.chdir(tmp_path)  # no ./toy here: only the data root holds it
    assert main(["analyze", "--dataset", "toy", "--json", str(by_name)]) == 0
    capsys.readouterr()
    doc = json.loads(by_name.read_text())
    assert doc.pop("dataset") == "toy"
    assert doc == {k: v for k, v in json.loads(by_path.read_text()).items()
                   if k != "dataset"}


@pytest.mark.parametrize("target", ["meta.json", "features.csv", "edges.txt", "config",
                                    "grid", "report", "checkpoint"])
def test_undecodable_input_file_exit_2(toy_dir, tmp_path, target, capsys):
    """Bytes that are not UTF-8 in any input file are a usage error that
    names the file, and the command writes nothing."""
    ckpt, _, report_path = _checkpoint_and_report(toy_dir, tmp_path)
    cfg, grid = tmp_path / "cfg.json", tmp_path / "grid.json"
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1}))
    grid.write_text(json.dumps({"alpha": [0.5]}))
    out, out_json = tmp_path / "out", tmp_path / "out.json"
    train = ["train", "--config", str(cfg), "--out", str(out)]
    evaluate = ["evaluate", "--checkpoint", str(ckpt), "--report", str(report_path),
                "--json", str(out_json)]
    command = {"grid": ["grid", "--config", str(cfg), "--grid-json", str(grid),
                        "--out", str(out)],
               "report": evaluate, "checkpoint": evaluate}.get(target, train)
    bad = {"config": cfg, "grid": grid, "report": report_path,
           "checkpoint": ckpt}.get(target, os.path.join(toy_dir, target))
    with open(bad, "wb") as fh:
        fh.write(b"\xff\xfe{")
    assert main([*command, "--dataset", toy_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
    assert not out.exists() and not out_json.exists()


def test_verify_ok_and_report_fields(tmp_path, capsys):
    out_json = tmp_path / "verify.json"
    assert main(["verify", "--graphs", "40", "--seed", "2",
                 "--json", str(out_json)]) == 0
    doc = json.loads(out_json.read_text())
    assert doc["passed"] is True
    assert doc["max_identity_residual"] < 1e-12
    assert {s["name"] for s in doc["suites"]} == {"identity", "signs", "budget"}
    capsys.readouterr()


@pytest.mark.parametrize("ratios, signs, kind", [
    ((2.0, -1.0), (1, -1), "non-iii-improvement"),
    ((-1.0, 2.0), (-1, 1), "iii-not-improving")])
def test_verify_reports_an_edge_type_that_moves_the_ratios_wrongly(ratios, signs, kind,
                                                                   monkeypatch, capsys):
    """The sign suite's last two checks: only a Type III deletion may raise
    hr_c while lowering hr_s, and every Type III deletion must. Within that
    suite every single-edge deletion is made to leave the ratios at `ratios`
    (outside [0, 1], so each shift has the sign in `signs`), and the sign
    table predicts `signs`, so the first edge of the wrong type is the
    counterexample. The other suites run unchanged."""
    real_sign_suite = fairgraph.verify.sign_suite

    def shifted_sign_suite(**kwargs):
        monkeypatch.setattr("fairgraph.verify.homophily_ratios",
                            lambda graph, labels: ratios)
        monkeypatch.setattr("fairgraph.verify.single_edge_effect",
                            lambda census, t: signs)
        return real_sign_suite(**kwargs)

    monkeypatch.setattr("fairgraph.verify.sign_suite", shifted_sign_suite)
    assert main(["verify", "--graphs", "40", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert "signs     FAIL" in captured.out
    assert captured.out.count(" ok ") == 2  # identity and budget still pass
    example = json.loads(captured.err.removeprefix("counterexample: "))
    assert example["kind"] == kind


def test_verify_fault_injection_exits_1(monkeypatch, capsys):
    def leave_one_type_iii_edge(graph, labels):
        edited, report = fair_edge_remove(graph, labels)
        if report.removed_edges:
            broken = Graph.from_edges(
                graph.n, np.vstack([edited.edge_array, report.removed_edges[:1]]))
            return broken, report
        return edited, report

    monkeypatch.setattr("fairgraph.verify.fair_edge_remove", leave_one_type_iii_edge)
    assert main(["verify", "--graphs", "40", "--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert "counterexample" in err


def _shift_full_removal(real):
    """predict_ratio_shift off by 1e-9 on a second call for one census: the
    identity suite's full-removal check, after its subset check."""
    calls = []

    def shifted(census, k):
        dc, ds = real(census, k)
        repeat = bool(calls) and calls[-1] is census
        calls.append(census)
        return (dc + 1e-9, ds) if repeat else (dc, ds)
    return shifted


def _infeasible(census, tau_c, tau_s):
    raise InfeasibleError("no budget")


@pytest.mark.parametrize("suite,target,fault,kind", [
    (identity_suite, "predict_ratio_shift",
     lambda real: lambda c, k: (real(c, k)[0] + 1e-9, real(c, k)[1]), "subset-shift"),
    (identity_suite, "predict_ratio_shift", _shift_full_removal, "full-removal-shift"),
    (sign_suite, "single_edge_effect",
     lambda real: lambda c, t: (real(c, t)[0], -real(c, t)[1]), "sign-table"),
    (budget_suite, "minimal_deletions",
     lambda real: lambda c, tau_c, tau_s: real(c, tau_c, tau_s) + 1, "budget"),
    (budget_suite, "minimal_deletions", lambda real: _infeasible, "budget"),
], ids=["subset-shift", "full-removal-shift", "sign-table", "budget-off-by-one",
        "budget-infeasible"])
def test_verify_suite_reports_a_rebuildable_counterexample(suite, target, fault, kind,
                                                           monkeypatch):
    monkeypatch.setattr(f"fairgraph.verify.{target}",
                        fault(getattr(fairgraph.verify, target)))
    report = suite(50)
    example = report.counterexample
    assert not report.passed and example["kind"] == kind
    assert json.loads(json.dumps(report.to_dict()))["counterexample"] == example
    graph = Graph.from_edges(example["n"], example["edges"])
    labels = NodeLabels.create(sensitive=example["sensitive"],
                               class_label=example["class_label"])
    assert graph.edge_array.tolist() == example["edges"]
    assert edge_census(graph, labels).m == len(example["edges"])
    if kind == "budget":  # the unfaulted kernel agrees with the brute force
        assert minimal_deletions(edge_census(graph, labels), example["tau_c"],
                                 example["tau_s"]) == example["expected"]


@pytest.mark.parametrize("flag,value", [("graphs", "0"), ("graphs", "-3")])
def test_verify_that_checks_nothing_exit_2(tmp_path, flag, value, capsys):
    out_json = tmp_path / "verify.json"
    assert main(["verify", f"--{flag}={value}", "--json", str(out_json)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and " ok " not in captured.out
    assert not out_json.exists()
    with pytest.raises(ConfigError):
        run_suites(n_graphs=int(value))
    assert run_suites(n_graphs=1)[1][0].graphs_checked == 1


def test_verify_tolerance_is_fixed(tmp_path, capsys):
    """The identities are checked to IDENTITY_TOL alone: there is no flag
    that loosens it, and --json records it."""
    out_json = tmp_path / "verify.json"
    assert main(["verify", "--tol", "1e-6", "--json", str(out_json)]) == 2
    assert "--tol" in capsys.readouterr().err and not out_json.exists()
    assert main(["verify", "--graphs", "1", "--json", str(out_json)]) == 0
    assert json.loads(out_json.read_text())["tolerance"] == IDENTITY_TOL == 1e-12
    capsys.readouterr()


def test_pretrain_edit_analyze_flow(toy_dir, tmp_path, capsys):
    """`pretrain` writes phase 1's checkpoint, report and edited graph;
    `edit` and `analyze` read the dataset under its ground truth, so the
    census `edit` starts from is `analyze`'s, not pre-training's."""
    pre_dir = tmp_path / "pre"
    assert main(["pretrain", "--dataset", toy_dir, "--seed", "3",
                 "--out", str(pre_dir)]) == 0
    assert sorted(os.listdir(pre_dir)) == ["edited_edges.txt", "pretrain_report.json",
                                           "pretrained.json"]
    edit_dir = tmp_path / "edit"
    assert main(["edit", "--dataset", toy_dir, "--out", str(edit_dir)]) == 0
    report = json.loads((edit_dir / "edit_report.json").read_text())
    assert report["census_after"]["type_iii"] == 0
    assert report["hr_c_after"] >= report["hr_c_before"]
    assert report["hr_s_after"] <= report["hr_s_before"]
    edges = (edit_dir / "edited_edges.txt").read_text().strip().splitlines()
    assert len(edges) == report["census_after"]["m"]
    out_json = tmp_path / "analyze.json"
    assert main(["analyze", "--dataset", toy_dir, "--json", str(out_json)]) == 0
    doc = json.loads(out_json.read_text())
    assert doc["census"] == report["census_before"]
    # pre-training's edit is under its pseudo-labels, which are not the truth
    pre_edit = json.loads((pre_dir / "pretrain_report.json").read_text())["edit"]
    assert pre_edit["census_before"] != doc["census"]
    capsys.readouterr()


@pytest.mark.parametrize("mode, by_flag", [
    *(pytest.param(mode, False, id=mode) for mode in MODES),
    pytest.param("CAF", True, id="CAF-flag")])
def test_edit_from_the_pretrain_report_is_trains_edit(toy_dir, tmp_path, mode, by_flag,
                                                       capsys):
    """`pretrain` is phase 1 of `train` for the same config and seed: its
    report records train's edit, and its edited_edges.txt is the graph
    phase 2 trains on, edited in HSCCAF and CAF+GE and whole in the other
    modes. The mode comes from the config file, or from the --mode flag
    both commands take."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_train": 1} if by_flag else {"T_train": 1, "mode": mode}))
    common = ["--dataset", toy_dir, "--config", str(cfg), "--seed", "0",
              *(["--mode", mode] if by_flag else [])]
    assert main(["pretrain", *common, "--out", str(tmp_path / "pre")]) == 0
    assert main(["train", *common, "--out", str(tmp_path / "run")]) == 0
    trained = json.loads((tmp_path / "run" / "run_seed0_split0.json").read_text())["edit"]
    pre_report = json.loads((tmp_path / "pre" / "pretrain_report.json").read_text())
    assert pre_report["mode"] == mode and pre_report["edit"] == trained
    assert trained["skipped"] is not MODE_FLAGS[mode]["edit"]
    graph, table = load_dataset(resolve_dataset(toy_dir))
    edited = graph.remove_edges(trained["removed_edges"])
    assert (edited.m < graph.m) is MODE_FLAGS[mode]["edit"]
    lines = (tmp_path / "pre" / "edited_edges.txt").read_text().splitlines()
    assert [list(map(int, line.split())) for line in lines] == edited.edge_array.tolist()
    # the pseudo-labels are not the ground truth, so the truth's edit differs
    assert trained["census_before"] != edge_census(graph, table.labels).to_dict()
    capsys.readouterr()


def test_every_training_command_reads_the_same_config_flags(tmp_path):
    """`pretrain`, `train` and `grid` take --config, --mode, --seed and --lr
    alike, so a flag-only `train` has a `pretrain` and a `grid` twin."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_pre": 3}))
    flags = ["--dataset", "d", "--out", "o", "--config", str(cfg), "--mode", "CAF",
             "--seed", "5", "--lr", "0.05"]
    want = TrainConfig(T_pre=3, mode="CAF", seeds=(5,), lr=0.05)
    for command in ("pretrain", "train", "grid"):
        assert _build_config(build_parser().parse_args([command, *flags])) == want


@pytest.mark.parametrize("synth, cfg, phrase", [
    (["--n", "12", "--hr-c", "0.5", "--hr-s", "0.5", "--mean-degree", "6", "--seed", "1"],
     {}, ("draws one non-adjacent node pair per edge",
          "counts are of the graph after the phase-1 edit", "of the dataset's 43 edges")),
    (["--n", "40", "--seed", "2"], {"splits": [0.02, 0.49, 0.49]},
     (">= 2 participating nodes",)),
], ids=["more-edges-than-non-adjacent-pairs", "one-training-node"])
def test_a_loss_that_cannot_be_formed_exits_1(tmp_path, synth, cfg, phrase, capsys):
    """The structure loss draws one non-adjacent pair per edge, and the
    supervised contrast needs two training nodes: a dataset or split that
    cannot supply them fails the run with one error line saying so, and no
    --out directory. The pairs are counted on the graph phase 1 edited
    (43 edges in the dataset), which the message says."""
    data, cfg_path, out = tmp_path / "data", tmp_path / "cfg.json", tmp_path / "run"
    assert main(["synth", "--out", str(data), *synth]) == 0
    cfg_path.write_text(json.dumps({"T_pre": 1, "T_train": 1, **cfg}))
    capsys.readouterr()
    assert main(["train", "--dataset", str(data), "--config", str(cfg_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(part in err for part in phrase), err
    assert not out.exists()


def test_train_evaluate_export_flow(toy_dir, tmp_path, capsys):
    run_dir = tmp_path / "runs"
    assert main(["train", "--dataset", toy_dir, "--mode", "HSCCAF",
                 "--seed", "0", "--splits", "2", "--lr", "0.05",
                 "--alpha", "1", "--omega", "0.3", "--eta", "0.09",
                 "--out", str(run_dir)]) == 0
    agg = json.loads((run_dir / "aggregate.json").read_text())
    assert agg["aggregate"]["n_runs"] == 2
    assert "config_hash" in agg and "library_version" in agg
    # the default optimisation path is Adam, the one the benchmark measures
    assert agg["optimizer"] == agg["config"]["optimizer"] == "adam"
    assert all(json.loads(path.read_text())["optimizer"] == "adam"
               for path in run_dir.glob("run_*_split?.json"))
    stdout = capsys.readouterr().out
    assert "mean(std)" in stdout

    reports = sorted(run_dir.glob("run_*_split0.json"))
    assert len(reports) == 1
    report_path = reports[0]
    ckpt_path = str(report_path).replace(".json", ".ckpt.json")
    assert main(["evaluate", "--dataset", toy_dir,
                 "--checkpoint", ckpt_path,
                 "--report", str(report_path)]) == 0
    assert "matches stored report" in capsys.readouterr().out
    # a report whose removed edges are not edges of the dataset is a usage error
    doc = json.loads(report_path.read_text())
    for bad in ([[0, 10 ** 6]], [[-1, 2]], [[3, 3]]):
        doc["edit"].update(skipped=False, removed_edges=bad)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["evaluate", "--dataset", toy_dir, "--checkpoint", ckpt_path,
                     "--report", str(tampered)]) == 2
        assert "removed edges" in capsys.readouterr().err

    emb = tmp_path / "emb.csv"
    assert main(["export", "--dataset", toy_dir, "--checkpoint", ckpt_path,
                 "--report", str(report_path), "--out", str(emb)]) == 0
    header = emb.read_text().splitlines()[0].split(",")
    assert header[:4] == ["node_id", "split", "y", "s"]
    assert len(header) == 4 + 16 + 16  # d_c = d_e = 16 defaults
    capsys.readouterr()


def _trained_run(toy_dir, tmp_path):
    """(report path, checkpoint path) of a short HSCCAF run on the toy
    dataset."""
    cfg, run_dir = tmp_path / "short.json", tmp_path / "short-run"
    cfg.write_text(json.dumps({"T_pre": 10, "T_train": 5, "lr": 0.05}))
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg), "--seed", "0",
                 "--out", str(run_dir)]) == 0
    report = next(run_dir.glob("run_*_split0.json"))
    return report, str(report).replace(".json", ".ckpt.json")


def test_evaluate_against_a_differing_report_exits_1(toy_dir, tmp_path, capsys):
    report_path, ckpt = _trained_run(toy_dir, tmp_path)
    doc = json.loads(report_path.read_text())
    recomputed = dict(doc["test"])
    doc["test"]["bacc"] += 1.0
    report_path.write_text(json.dumps(doc))
    out_json = tmp_path / "eval.json"
    assert main(["evaluate", "--dataset", toy_dir, "--checkpoint", ckpt,
                 "--report", str(report_path), "--json", str(out_json)]) == 1
    assert "stored report differs" in capsys.readouterr().err
    assert json.loads(out_json.read_text()) == recomputed


def test_evaluate_ignores_the_run_identity_in_a_stored_report(toy_dir, tmp_path, capsys):
    """Reports once carried the seed and the split position in their val and
    test blocks, and a top-level split_id; evaluate compares the summary
    metrics alone, so such a report still matches."""
    report_path, ckpt = _trained_run(toy_dir, tmp_path)
    doc = json.loads(report_path.read_text())
    recomputed = dict(doc["test"])
    doc["split_id"] = 0
    for block in ("val", "test"):
        doc[block].update(seed=doc["seed"], split_id=0)
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    out_json = tmp_path / "eval.json"
    assert main(["evaluate", "--dataset", toy_dir, "--checkpoint", ckpt,
                 "--report", str(report_path), "--json", str(out_json)]) == 0
    assert "matches stored report" in capsys.readouterr().out
    assert json.loads(out_json.read_text()) == recomputed


def test_evaluate_on_an_unlabelled_test_node_exits_1(toy_dir, tmp_path, capsys):
    report_path, ckpt = _trained_run(toy_dir, tmp_path)
    node = json.loads(report_path.read_text())["splits"]["test"][0]
    path = os.path.join(toy_dir, "features.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1 + node][rows[0].index("label")] = ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    out_json = tmp_path / "eval.json"
    assert main(["evaluate", "--dataset", toy_dir, "--checkpoint", ckpt,
                 "--report", str(report_path), "--json", str(out_json)]) == 1
    err = capsys.readouterr().err
    assert err == "error: 1 evaluated nodes have no class label\n"
    assert not out_json.exists()


def _checkpoint_and_report(toy_dir, tmp_path):
    """An untrained checkpoint for the toy dataset and a minimal run report
    whose splits and one removed edge fit it."""
    graph, table = load_dataset(resolve_dataset(toy_dir))
    ckpt = tmp_path / "model.ckpt.json"
    save_checkpoint(ckpt, init_params(table.features.shape[1], 16, 16, seed=0))
    report = {"splits": {"train": [0, 1], "val": [2, 3], "test": [4, 5]},
              "edit": {"removed_edges": [graph.edge_array[0].tolist()]},
              "test": {}, "seed": 0, "split_id": 0}
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    return ckpt, report, report_path


def _drop(doc, block, key=None):
    del (doc if key is None else doc[block])[key or block]


def _bad_value(name, value):
    """A fault that puts `value` first in the checkpoint array `name`; the
    error must name the array."""
    def tamper(doc):
        if name.startswith("feature_"):
            doc["meta"][name][0] = value
        else:
            block = "encoder" if name in doc["encoder"] else "predictor"
            doc[block][name]["data"][0] = value
    tamper.array = name
    return tamper


CHECKPOINT_FAULTS = {
    "format-version": lambda doc: doc.update(format_version=2),
    "no-encoder": lambda doc: _drop(doc, "encoder"),
    "no-predictor-b": lambda doc: _drop(doc, "predictor", "b"),
    "data-size": lambda doc: doc["encoder"]["w1"].update(
        data=doc["encoder"]["w1"]["data"][:-1]),
    "shapes-disagree": lambda doc: doc["encoder"].update(
        b1={"shape": [3], "data": [0.0, 0.0, 0.0]}),
    "d_c-disagrees": lambda doc: doc.update(d_c=8, d_e=8),
    "d_e-not-d_c": lambda doc: doc.update(d_e=8),
    "other-feature-width": lambda doc: doc["encoder"].update(
        w1={"shape": [2, 16], "data": [0.0] * 32}),
    "feature-stats-width": lambda doc: doc.update(
        meta={"feature_mean": [0.0], "feature_std": [1.0]}),
    "no-feature-stats": lambda doc: doc.update(meta={}),
    "feature-std-zero": lambda doc: doc["meta"]["feature_std"].__setitem__(0, 0.0),
    "meta-not-mapping": lambda doc: doc.update(meta=[]),
    "missing-file": None,
    "not-json": "{",
    "w1-null": _bad_value("w1", None),
    "w1-string-nan": _bad_value("w1", "nan"),
    "w1-string-number": _bad_value("w1", "0.5"),
    "w1-bool": _bad_value("w1", True),
    "w1-nan": _bad_value("w1", math.nan),
    "b2-infinity": _bad_value("b2", math.inf),
    "w-minus-infinity": _bad_value("w", -math.inf),
    "b1-int-beyond-float": _bad_value("b1", 10 ** 400),
    "feature-mean-bool": _bad_value("feature_mean", True),
    "feature-std-string-number": _bad_value("feature_std", "0.5"),
}


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_bad_checkpoint_is_config_error(toy_dir, tmp_path, fault, capsys):
    ckpt, _, report_path = _checkpoint_and_report(toy_dir, tmp_path)
    tamper = CHECKPOINT_FAULTS[fault]
    if tamper is None:
        ckpt.unlink()
    elif isinstance(tamper, str):
        ckpt.write_text(tamper)
    else:
        doc = json.loads(ckpt.read_text())
        tamper(doc)
        ckpt.write_text(json.dumps(doc))
    for command in (["evaluate", "--report", str(report_path)],
                    ["export", "--out", str(tmp_path / "emb.csv")]):
        assert main([*command, "--dataset", toy_dir, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "checkpoint" in err and getattr(tamper, "array", "") in err, err


def _retype_edge(convert):
    """A fault that rewrites the ids of the stored edit's one removed edge."""
    def tamper(doc):
        u, v = doc["edit"]["removed_edges"][0]
        doc["edit"]["removed_edges"] = [convert(u, v)]
    return tamper


REPORT_FAULTS = {
    "no-splits": lambda doc: doc.pop("splits"),
    "no-test": lambda doc: doc.pop("test"),
    "split-id-out-of-range": lambda doc: doc["splits"].update(test=[10 ** 6]),
    "split-id-negative": lambda doc: doc["splits"].update(val=[-1]),
    "split-missing-mask": lambda doc: doc["splits"].pop("val"),
    "split-id-fraction": lambda doc: doc["splits"].update(test=[4.5]),
    "split-id-bool": lambda doc: doc["splits"].update(train=[True]),
    "split-id-string": lambda doc: doc["splits"].update(val=["3"]),
    "split-id-list": lambda doc: doc["splits"].update(test=[[3]]),
    "edit-number": lambda doc: doc.update(edit=5),
    "edit-list": lambda doc: doc.update(edit=[]),
    "edge-id-fraction": _retype_edge(lambda u, v: [u + 0.5, v + 0.25]),
    "edge-id-null": _retype_edge(lambda u, v: [u, None]),
    "edge-id-string": _retype_edge(lambda u, v: [str(u), str(v)]),
    "edge-id-bool": _retype_edge(lambda u, v: [False, True]),
    # the toy graph's first edge starts at node 0, so [False, v] read as
    # integers names that edge
    "edge-id-mixed-bool": _retype_edge(lambda u, v: [bool(u), v]),
}


@pytest.mark.parametrize("fault", sorted(REPORT_FAULTS) + ["not-json"])
def test_bad_stored_report_is_config_error(toy_dir, tmp_path, fault, capsys):
    ckpt, report, report_path = _checkpoint_and_report(toy_dir, tmp_path)
    if fault == "not-json":
        report_path.write_text("[1, 2")
    else:
        REPORT_FAULTS[fault](report)
        report_path.write_text(json.dumps(report))
    # export reads the splits and the edit of a report, not its test scores
    commands = [["evaluate"], ["export", "--out", str(tmp_path / "emb.csv")]]
    for command in commands[:1] if fault == "no-test" else commands:
        assert main([*command, "--dataset", toy_dir, "--checkpoint", str(ckpt),
                     "--report", str(report_path)]) == 2
        assert "report" in capsys.readouterr().err
    assert not (tmp_path / "emb.csv").exists()


def test_train_caf_mode_reduction(toy_dir, tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    common = ["--dataset", toy_dir, "--seed", "5", "--lr", "0.05",
              "--omega", "0", "--eta", "0"]
    assert main(["train", *common, "--mode", "HSCCAF-GE", "--out", str(a_dir)]) == 0
    assert main(["train", *common, "--mode", "CAF", "--out", str(b_dir)]) == 0
    a = json.loads(next(a_dir.glob("run_*_split0.json")).read_text())
    b = json.loads(next(b_dir.glob("run_*_split0.json")).read_text())
    assert [e["loss"] for e in a["epochs"]] == [e["loss"] for e in b["epochs"]]
    capsys.readouterr()


def test_grid_command(toy_dir, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"alpha": [0.2, 0.9]}))
    out_dir = tmp_path / "grid_out"
    assert main(["grid", "--dataset", toy_dir, "--seed", "1",
                 "--grid-json", str(grid_file), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "grid.json").read_text())
    assert len(doc["cells"]) == 2
    scores = [c["mean_val_score"] for c in doc["cells"]]
    assert scores == sorted(scores, reverse=True)
    capsys.readouterr()


@pytest.mark.parametrize("threads", ["abc", "1.5", "0", "-2"])
def test_bad_thread_count_is_config_error(toy_dir, tmp_path, threads, monkeypatch, capsys):
    monkeypatch.setenv("FAIRGRAPH_THREADS", threads)
    graph, table = load_dataset(resolve_dataset(toy_dir))
    with pytest.raises(ConfigError, match="FAIRGRAPH_THREADS"):
        run_experiment(graph, table, TrainConfig(T_pre=1, T_train=1))
    for command in ("train", "grid"):
        assert main([command, "--dataset", toy_dir, "--out", str(tmp_path / command)]) == 2
        assert "FAIRGRAPH_THREADS" in capsys.readouterr().err


def test_invalid_weight_is_config_error(toy_dir, tmp_path, capsys):
    assert main(["train", "--dataset", toy_dir, "--alpha", "-1",
                 "--out", str(tmp_path / "train")]) == 2
    assert "alpha" in capsys.readouterr().err
    graph, table = load_dataset(resolve_dataset(toy_dir))
    grid_file = tmp_path / "grid.json"
    for cell in ({"alpha": [-1]}, {"K": [2.7]}):
        grid_file.write_text(json.dumps(cell))
        assert main(["grid", "--dataset", toy_dir, "--grid-json", str(grid_file),
                     "--out", str(tmp_path / "grid")]) == 2
        assert next(iter(cell)) in capsys.readouterr().err
        with pytest.raises(ConfigError):
            grid_search(graph, table, TrainConfig(T_pre=1, T_train=1), cell)


def _expect_config_error(argv, out, capsys, name):
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err, err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--alpha", "inf"),
                                        ("--kappa", "inf"), ("--eta", "-inf")])
def test_non_finite_weight_flag_exit_2(toy_dir, tmp_path, flag, value, capsys):
    _expect_config_error(["train", "--dataset", toy_dir, f"{flag}={value}"],
                         tmp_path / "train", capsys, flag[2:])


def test_non_finite_weight_in_config_file_exit_2(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for weights in ({"eta": math.nan}, {"omega": math.inf}, {"alpha": True}):
        cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1, "weights": weights}))
        for command in ("train", "grid"):
            _expect_config_error([command, "--dataset", toy_dir, "--config", str(cfg)],
                                 tmp_path / command, capsys, next(iter(weights)))


def test_non_finite_grid_cell_exit_2(toy_dir, tmp_path, capsys):
    graph, table = load_dataset(resolve_dataset(toy_dir))
    grid_file = tmp_path / "grid.json"
    for cell in ({"omega": [math.nan, 0.3]}, {"gamma": [0.1, -math.inf]}):
        grid_file.write_text(json.dumps(cell))
        _expect_config_error(["grid", "--dataset", toy_dir, "--grid-json", str(grid_file)],
                             tmp_path / "grid", capsys, next(iter(cell)))
        with pytest.raises(ConfigError):
            grid_search(graph, table, TrainConfig(T_pre=1, T_train=1), cell)


def _run_seeds(out):
    return json.loads((out / "aggregate.json").read_text())["config"]["seeds"]


def test_seed_flag_and_config_seeds(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1, "seeds": [7]}))
    train = ["train", "--dataset", toy_dir, "--config", str(cfg)]
    # without --seed the config's seeds stand; --seed replaces a single one
    assert main([*train, "--out", str(tmp_path / "a")]) == 0
    assert _run_seeds(tmp_path / "a") == [7]
    assert (tmp_path / "a" / "run_seed7_split0.json").exists()
    assert main([*train, "--seed", "3", "--out", str(tmp_path / "b")]) == 0
    assert _run_seeds(tmp_path / "b") == [3]
    assert main(["pretrain", "--dataset", toy_dir, "--config", str(cfg),
                 "--out", str(tmp_path / "pre")]) == 0
    pre = json.loads((tmp_path / "pre" / "pretrain_report.json").read_text())
    assert pre["seed"] == 7
    # --splits derives its seeds from --seed, or from 0 without it
    for seed_flags, base in (([], 0), (["--seed", "5"], 5)):
        out = tmp_path / f"splits{base}"
        assert main([*train, *seed_flags, "--splits", "2", "--out", str(out)]) == 0
        assert _run_seeds(out) == [derive_seed(base, f"run:{i}") for i in range(2)]
    # a multi-seed config runs every seed, and an explicit --seed conflicts
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1, "seeds": [7, 8]}))
    assert main([*train, "--out", str(tmp_path / "c")]) == 0
    assert _run_seeds(tmp_path / "c") == [7, 8]
    capsys.readouterr()
    for command in ("train", "pretrain", "grid"):
        _expect_config_error([command, "--dataset", toy_dir, "--config", str(cfg),
                              "--seed", "3"], tmp_path / command, capsys, "--seed 3")
    # a config without seeds runs the default seed 0
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1}))
    assert main([*train, "--out", str(tmp_path / "d")]) == 0
    assert _run_seeds(tmp_path / "d") == [0]
    capsys.readouterr()


def test_divergence_exit_1(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 20}))
    out = tmp_path / "train"
    with np.errstate(all="ignore"):
        assert main(["train", "--dataset", toy_dir, "--config", str(cfg),
                     "--lr", "1e90", "--out", str(out)]) == 1
    assert "train loss became non-finite at epoch" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_feature_exit_2(toy_dir, tmp_path, capsys):
    features = os.path.join(toy_dir, "features.csv")
    with open(features, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[0] = "1e999"
    lines[5] = ",".join(row)
    with open(features, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "train"
    assert main(["train", "--dataset", toy_dir, "--out", str(out)]) == 2
    assert f"node 4, column {header[0]!r}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_file_exit_2(toy_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mode": "NOPE"}))
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    cfg.write_text("{not json")
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg),
                 "--out", str(tmp_path / "y")]) == 2
    for key, value in (("dis_metric", "cosine"), ("sc_labels", "labeled"),
                       ("reinit_phase2", False)):
        cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1, key: value}))
        assert main(["train", "--dataset", toy_dir, "--config", str(cfg),
                     "--out", str(tmp_path / key)]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("hidden", 0), ("d_c", 0), ("T_pre", 2.5), ("hidden", "8"), ("seeds", ["a"]),
    ("seeds", []), ("refresh_period", 2.5), ("lr", True), ("optimizer", "sgd"),
    ("optimizer", "gd"), ("splits", [0.5, 0.5]), ("splits", [0.6, 0.3, 0.3])],
    ids=["hidden-0", "d_c-0", "T_pre-2.5", "hidden-string", "seeds-string",
         "seeds-empty", "refresh_period-2.5", "lr-bool", "optimizer-sgd",
         "optimizer-gd", "splits-two", "splits-sum-1.2"])
def test_malformed_config_value_exit_2(toy_dir, tmp_path, field, value, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1, field: value}))
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    _one_error_line(capsys, field)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", [None, "{not json", {"alpha": 0.5}, {"alpha": []}],
                         ids=["missing-file", "not-json", "scalar-value", "empty-list"])
def test_malformed_grid_exit_2(toy_dir, tmp_path, grid, capsys):
    grid_file = tmp_path / "grid.json"
    if grid is not None:
        grid_file.write_text(grid if isinstance(grid, str) else json.dumps(grid))
    assert main(["grid", "--dataset", toy_dir, "--grid-json", str(grid_file),
                 "--out", str(tmp_path / "out")]) == 2
    assert "grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("grid", "--top", "0"), ("grid", "--top", "-1"), ("train", "--splits", "0"),
    ("grid", "--splits", "-2"), ("train", "--splits", "two")])
def test_count_flag_below_one_is_usage_error(toy_dir, tmp_path, command, flag, value,
                                             capsys):
    # a one-epoch, one-cell run keeps a regression that trains anyway short
    cfg, grid = tmp_path / "cfg.json", tmp_path / "grid.json"
    cfg.write_text(json.dumps({"T_pre": 1, "T_train": 1}))
    grid.write_text(json.dumps({"alpha": [0.5]}))
    small = ["--config", str(cfg)] + (["--grid-json", str(grid)] if command == "grid" else [])
    out = tmp_path / "out"
    assert main([command, "--dataset", toy_dir, *small, flag, value, "--out", str(out)]) == 2
    assert f"argument {flag}: must be a whole number >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_mean_degree_exit_1(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--mean-degree", "-3"]) == 1
    assert "error: mean_degree must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_synth_without_edges_writes_nothing(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--mean-degree", "0"]) == 1
    assert "homophily ratios are undefined" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_roundtrip_drives_training(toy_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "weights": {"alpha": 0.5, "beta": 1.0, "gamma": 0.5, "omega": 0.3,
                    "eta": 0.09, "K": 3, "K_prime": 3, "kappa": 1.0},
        "lr": 0.05, "T_pre": 20, "T_train": 10, "refresh_period": 5,
        "seeds": [0], "splits": [0.5, 0.25, 0.25], "mode": "HSCCAF"}))
    out_dir = tmp_path / "cfg_run"
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    agg = json.loads((out_dir / "aggregate.json").read_text())
    assert agg["config"]["T_train"] == 10
    assert agg["config"]["weights"]["K"] == 3
    capsys.readouterr()


def test_degenerate_edit_run_evaluates_exactly(tmp_path, capsys):
    # only Type III edges between training nodes, whose ground truth the
    # run reads: editing would remove every one of them
    g, table = synth_generate(SynthConfig(n=150, target_hr_c=0.55, target_hr_s=0.85,
                                          mean_degree=8, seed=4))
    y, s = table.labels.class_label, table.labels.sensitive
    labeled = np.where(table.labels.labeled_mask())[0]
    train = split_dataset(table.n, labeled, TrainConfig().splits,
                          derive_seed(2, "split")).train
    g = Graph.from_edges(g.n, [(u, v) for u, v in g.edges
                               if y[u] != y[v] and s[u] == s[v] and train[u] and train[v]])
    data_dir = str(tmp_path / "all_iii")
    write_dataset(data_dir, g, table)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"T_pre": 10, "T_train": 5, "lr": 0.05}))
    run_dir = tmp_path / "runs"
    assert main(["train", "--dataset", data_dir, "--config", str(cfg_path),
                 "--seed", "2", "--out", str(run_dir)]) == 0
    report_path = run_dir / "run_seed2_split0.json"
    edit = json.loads(report_path.read_text())["edit"]
    assert edit["degenerate"] is True and edit["skipped"] is False
    assert edit["removed_count"] == 0
    # `pretrain` with the same config and seed writes the unedited edges
    pre_dir = tmp_path / "pre"
    assert main(["pretrain", "--dataset", data_dir, "--config", str(cfg_path),
                 "--seed", "2", "--out", str(pre_dir)]) == 0
    lines = (pre_dir / "edited_edges.txt").read_text().splitlines()
    assert [list(map(int, line.split())) for line in lines] == g.edge_array.tolist()
    assert main(["evaluate", "--dataset", data_dir,
                 "--checkpoint", str(run_dir / "run_seed2_split0.ckpt.json"),
                 "--report", str(report_path)]) == 0
    assert "matches stored report" in capsys.readouterr().out


def _losses_debug_records(caplog):
    """Debug records from a selection where node 0 has no e-type candidate."""
    caplog.clear()
    select_counterfactuals(np.eye(3), np.array([0, 1, 1]), np.array([0, 0, 1]), k=1)
    return [r for r in caplog.records
            if r.name == "fairgraph.losses" and r.levelno == logging.DEBUG]


def test_log_level_flag(toy_dir, caplog, capsys):
    try:
        assert main(["--log-level", "debug", "analyze", "--dataset", toy_dir]) == 0
        assert _losses_debug_records(caplog)
        assert main(["analyze", "--dataset", toy_dir]) == 0
        assert not _losses_debug_records(caplog)
    finally:
        logging.getLogger("fairgraph").setLevel(logging.NOTSET)
    assert main(["--log-level", "loud", "analyze", "--dataset", toy_dir]) == 2
    capsys.readouterr()


def _one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err, err


def test_unwritable_json_path_exit_2(toy_dir, tmp_path, capsys):
    missing = tmp_path / "missing" / "v.json"
    assert main(["verify", "--graphs", "1", "--json", str(missing)]) == 2
    _one_error_line(capsys, f"cannot write {missing}: ")
    assert not missing.parent.exists()
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    target = afile / "x.json"
    assert main(["analyze", "--dataset", toy_dir, "--json", str(target)]) == 2
    _one_error_line(capsys, f"cannot write {target}: ")
    assert afile.read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "data"]


def test_export_into_a_missing_directory_exit_2(toy_dir, tmp_path, capsys):
    ckpt, _, report_path = _checkpoint_and_report(toy_dir, tmp_path)
    out = tmp_path / "missing" / "e.csv"
    assert main(["export", "--dataset", toy_dir, "--checkpoint", str(ckpt),
                 "--report", str(report_path), "--out", str(out)]) == 2
    _one_error_line(capsys, f"cannot write {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("command,work", [
    ("train", "run_experiment"), ("grid", "grid_search"), ("pretrain", "phase_one"),
    ("edit", "run_phase1")])
def test_out_that_is_a_file_fails_before_any_work(toy_dir, tmp_path, command, work,
                                                  monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"fairgraph.cli.{work}", must_not_run)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    assert main([command, "--dataset", toy_dir, "--out", str(afile)]) == 2
    _one_error_line(capsys, f"cannot write {afile}: not a directory")
    assert afile.read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "data"]


@pytest.mark.parametrize("command,flag,work", [
    ("verify", "--json", "run_suites"), ("analyze", "--json", "load_dataset"),
    ("evaluate", "--json", "load_dataset"), ("export", "--out", "load_dataset")])
def test_output_file_without_a_directory_fails_before_any_work(
        toy_dir, tmp_path, command, flag, work, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"fairgraph.cli.{work}", must_not_run)
    inputs = {"verify": [], "analyze": ["--dataset", toy_dir],
              "evaluate": ["--dataset", toy_dir, "--checkpoint", "c.json",
                           "--report", "r.json"],
              "export": ["--dataset", toy_dir, "--checkpoint", "c.json"]}[command]
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    for target in (tmp_path / "missing" / "v.json", afile / "v.json"):
        assert main([command, *inputs, flag, str(target)]) == 2
        _one_error_line(capsys, f"cannot write {target}: {target.parent} is not a directory")
    assert afile.read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "data"]


def test_checkpoint_for_another_feature_width_exit_2(toy_dir, tmp_path, capsys):
    ckpt, _, _ = _checkpoint_and_report(toy_dir, tmp_path)
    meta_path = os.path.join(toy_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({**meta, "feature_cols": [f"feat_{j}" for j in range(7)]}, fh)
    out = tmp_path / "e.csv"
    assert main(["export", "--dataset", toy_dir, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 2
    _one_error_line(capsys, "is for 8 features; the dataset has 7")
    assert not out.exists()


def test_truth_labels_with_an_unlabelled_node_exit_2(toy_dir, capsys):
    path = os.path.join(toy_dir, "features.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("label")] = ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["analyze", "--dataset", toy_dir]) == 2
    _one_error_line(capsys, "every node must carry a class label")


def test_evaluate_on_an_empty_test_split_exits_1(toy_dir, tmp_path, capsys):
    ckpt, report, report_path = _checkpoint_and_report(toy_dir, tmp_path)
    report["splits"]["test"] = []
    report_path.write_text(json.dumps(report))
    out_json = tmp_path / "eval.json"
    assert main(["evaluate", "--dataset", toy_dir, "--checkpoint", str(ckpt),
                 "--report", str(report_path), "--json", str(out_json)]) == 1
    _one_error_line(capsys, "empty evaluation mask")
    assert not out_json.exists()


def test_feature_column_missing_from_the_header_exit_2(toy_dir, capsys):
    """A drop column missing from the header exits 2 as well: a misspelt one
    would otherwise leave the sensitive column among the features."""
    meta_path = os.path.join(toy_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    for key, names, message in (
            ("feature_cols", ["feat_0", "feat_99"], "feature columns ['feat_99']"),
            ("drop_cols", ["sensitve"], "drop columns ['sensitve']")):
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump({**meta, key: names}, fh)
        assert main(["analyze", "--dataset", toy_dir]) == 2
        _one_error_line(capsys, f"{message} not in header")


def test_synth_below_eight_nodes_exit_1(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--n", "7"]) == 1
    _one_error_line(capsys, "need at least 8 nodes")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--class-signal", "--sensitive-signal"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_synth_non_finite_signal_exit_2(tmp_path, flag, value, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--n", "40", f"{flag}={value}"]) == 2
    _one_error_line(capsys, f"{flag[2:].replace('-', '_')} must be a finite number, "
                            f"got {value}")
    assert not out.exists()


def test_synth_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
    _one_error_line(capsys, "seed must be >= 0, got -1")
    assert not out.exists()


def test_edit_of_an_edgeless_dataset_exit_1(tmp_path, capsys):
    _, table = synth_generate(SynthConfig(n=20, target_hr_c=0.6, target_hr_s=0.6, seed=1))
    data_dir = write_dataset(str(tmp_path / "edgeless"), Graph.from_edges(20, []), table)
    out = tmp_path / "edit"
    assert main(["edit", "--dataset", data_dir, "--out", str(out)]) == 1
    _one_error_line(capsys, "cannot edit an empty graph")
    assert not out.exists()


def test_edit_of_an_all_type_iii_graph_is_degenerate(tmp_path, capsys):
    """Editing would remove every edge: `edit` keeps them all and reports
    `degenerate`, as a training run does."""
    g, table = synth_generate(SynthConfig(n=150, target_hr_c=0.55, target_hr_s=0.85,
                                          mean_degree=8, seed=4))
    y, s = table.labels.class_label, table.labels.sensitive
    g = Graph.from_edges(g.n, [(u, v) for u, v in g.edges if y[u] != y[v] and s[u] == s[v]])
    data_dir = write_dataset(str(tmp_path / "all_iii"), g, table)
    out = tmp_path / "edit"
    assert main(["edit", "--dataset", data_dir, "--out", str(out)]) == 0
    report = json.loads((out / "edit_report.json").read_text())
    assert report["degenerate"] is True and report["skipped"] is False
    assert report["removed_count"] == 0 and report["census_before"]["type_iii"] == g.m
    lines = (out / "edited_edges.txt").read_text().splitlines()
    assert [tuple(map(int, line.split())) for line in lines] == list(g.edges)
    capsys.readouterr()


def test_count_weight_flag_takes_whole_numbers_only(toy_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--dataset", toy_dir, "--K", "2.5", "--out", str(out)]) == 2
    assert "argument --K: invalid int value" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_pre": 2, "T_train": 2}))
    assert main(["train", "--dataset", toy_dir, "--config", str(cfg), "--K", "3",
                 "--K_prime", "4", "--gamma", "0.5", "--out", str(out)]) == 0
    weights = json.loads((out / "aggregate.json").read_text())["config"]["weights"]
    assert weights["K"] == 3 and type(weights["K"]) is int and weights["K_prime"] == 4
    assert weights["gamma"] == 0.5
    capsys.readouterr()


def test_every_weight_is_a_train_flag_of_its_type():
    base = ["train", "--dataset", "d", "--out", "o"]
    for name, default in LossWeights().to_dict().items():
        args = build_parser().parse_args([*base, f"--{name}", "2"])
        value = getattr(args, name)
        assert value == 2 and type(value) is type(default), name
