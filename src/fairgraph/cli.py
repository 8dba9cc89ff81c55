"""Command-line surface: reproducible experiments over the library.

Exit codes: 0 success, 1 numerical/verification failure, 2 usage or
configuration failure. Every command is deterministic given its flags,
config and seed, and the JSON artifacts always agree with the stdout
summary (they are produced from the same objects).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import __version__
from .autodiff import NeighborAggregator
from .data import (
    SynthConfig,
    atomic_open,
    export_embeddings,
    load_dataset,
    make_dir,
    read_json,
    resolve_dataset,
    synth_generate,
    write_dataset,
    write_edges,
)
from .errors import ConfigError, DatasetError, FairGraphError
from .graph import edge_census, homophily_ratios
from .losses import LossWeights
from .metrics import SUMMARY_METRICS, evaluate_predictions
from .model import encode, input_layer, load_checkpoint, predict, save_checkpoint
from .pipeline import (
    DEFAULT_GRID,
    MODES,
    Splits,
    TrainConfig,
    grid_search,
    phase_one,
    run_experiment,
    run_phase1,
)
from .seeding import derive_seed
from .verify import IDENTITY_TOL, run_suites

WEIGHT_FLAGS = LossWeights().to_dict()  # flag -> default, whose type it takes
LOG_LEVELS = ("debug", "info", "warning", "error")


def _write_json(path, payload):
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)


def _check_out_dir(path):
    """Fail before any work if `path` exists but is no directory; it is made
    only when there is a result to write, so a failed run leaves nothing."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: not a directory")


def _check_out_file(path):
    """Fail before any work if the file `path` has no directory to go in."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path}: {parent} is not a directory")


def _load_dataset_arg(name_or_path):
    return load_dataset(resolve_dataset(name_or_path))


def _build_config(args):
    """The TrainConfig of `pretrain`, `train` and `grid`: the --config file
    (or the defaults), then the flags `_add_config_flags` declares, then
    `train`'s weight flags and the --splits of `train` and `grid`."""
    cfg = (TrainConfig.from_dict(read_json(args.config, "config")) if args.config
           else TrainConfig())
    weights = {flag: getattr(args, flag) for flag in WEIGHT_FLAGS
               if getattr(args, flag, None) is not None}
    if weights:
        cfg = replace(cfg, weights=LossWeights.from_dict({**cfg.weights.to_dict(),
                                                          **weights}))
    cfg = replace(cfg, **{flag: getattr(args, flag) for flag in ("mode", "lr")
                          if getattr(args, flag) is not None})
    # the config's seeds stand unless --seed or --splits replaces them
    seed = args.seed
    if getattr(args, "splits", None) is not None:
        cfg = replace(cfg, seeds=tuple(derive_seed(seed or 0, f"run:{i}")
                                       for i in range(args.splits)))
    elif seed is not None:
        if len(cfg.seeds) > 1:
            raise ConfigError(f"--seed {seed} conflicts with the config's seeds "
                              f"{list(cfg.seeds)}; give one or the other")
        cfg = replace(cfg, seeds=(seed,))
    return cfg


def _checkpoint_on(graph, table, path):
    """(latent state, predicted probabilities) of the checkpoint at `path`
    on the dataset; a checkpoint for another feature width is a ConfigError."""
    params, _ = load_checkpoint(path)
    width = table.features.shape[1]
    if params.w1.shape[0] != 2 * width:
        raise ConfigError(f"checkpoint {path} is for {params.w1.shape[0] // 2} "
                          f"features; the dataset has {width}")
    agg = NeighborAggregator(graph)
    latent = encode(params, agg, input_layer(params, agg, table.features))
    return latent, predict(params, latent.c)


def _stored_run(path, graph, n, fields=("splits",)):
    """(report, graph, splits) of the stored run report at `path`: the
    report holding each of `fields` as a mapping, the phase-1 edited graph
    the run trained on, and its splits over n nodes. A report that cannot be
    read or does not fit the dataset is a ConfigError."""
    stored = read_json(path, "report")
    missing = [f for f in fields
               if not isinstance(stored, dict) or not isinstance(stored.get(f), dict)]
    if missing:
        raise ConfigError(f"report {path} is not a run report: no {missing} block")
    try:
        splits = Splits.from_dict(stored["splits"], n)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"stored report's splits do not fit the dataset: {exc!r}") from exc
    edit = stored.get("edit", {})
    if not isinstance(edit, dict):
        raise ConfigError(f"stored report's edit block is not a mapping: {edit!r}")
    if edit.get("skipped") or not edit.get("removed_edges"):
        return stored, graph, splits
    try:
        return stored, graph.remove_edges(edit["removed_edges"]), splits
    except ValueError as exc:
        raise ConfigError(f"stored report's removed edges do not fit the dataset: {exc}") from exc


def _truth_labels(table):
    """The dataset's ground truth, which `analyze` and `edit` label by; a
    node without a class label is a ConfigError."""
    if (table.labels.class_label < 0).any():
        raise ConfigError("every node must carry a class label")
    return table.labels


# ---------------------------------------------------------------------------
# commands

def cmd_analyze(args):
    if args.json:
        _check_out_file(args.json)
    graph, table = _load_dataset_arg(args.dataset)
    census = edge_census(graph, _truth_labels(table))
    hr_c, hr_s = census.hr_c, census.hr_s
    payload = {"dataset": args.dataset, "n": graph.n, "census": census.to_dict(),
               "hr_c": hr_c, "hr_s": hr_s}
    print(f"nodes {graph.n}  edges {census.m}")
    print(f"hr_c {hr_c:.4f}  hr_s {hr_s:.4f}")
    print("edge types  I {type_i}  II {type_ii}  III {type_iii}  IV {type_iv}"
          .format(**census.to_dict()))
    if args.json:
        _write_json(args.json, payload)
    return 0


def cmd_edit(args):
    _check_out_dir(args.out)
    graph, table = _load_dataset_arg(args.dataset)
    edited, report = run_phase1(graph, _truth_labels(table), "HSCCAF")
    make_dir(args.out)
    write_edges(os.path.join(args.out, "edited_edges.txt"), edited)
    _write_json(os.path.join(args.out, "edit_report.json"), report.to_dict())
    print(f"removed {len(report.removed_edges)} Type III edges "
          f"({report.census_before.m} -> {report.census_after.m})")
    print(f"hr_c {report.hr_c_before:.4f} -> {report.hr_c_after:.4f}")
    print(f"hr_s {report.hr_s_before:.4f} -> {report.hr_s_after:.4f}")
    return 0


def cmd_pretrain(args):
    _check_out_dir(args.out)
    graph, table = _load_dataset_arg(args.dataset)
    cfg = _build_config(args)
    seed = cfg.seeds[0]
    start = phase_one(graph, table, cfg, seed)
    result = start.pre
    make_dir(args.out)
    ckpt = os.path.join(args.out, "pretrained.json")
    save_checkpoint(ckpt, result.params,
                    meta={"config_hash": cfg.config_hash(), "seed": seed,
                          "library_version": __version__, "phase": "pretrain"})
    _write_json(os.path.join(args.out, "pretrain_report.json"),
                {"final_loss": result.losses[-1], "epochs": len(result.losses),
                 "seed": seed, "config_hash": cfg.config_hash(), "mode": cfg.mode,
                 "pseudo_labels": result.pseudo_labels.tolist(),
                 "splits": start.splits.to_dict(),
                 "edit": start.edit_report.to_dict()})
    write_edges(os.path.join(args.out, "edited_edges.txt"), start.graph)
    print(f"pre-trained {len(result.losses)} epochs, final loss "
          f"{result.losses[-1]:.4f}; checkpoint at {ckpt}")
    return 0


def cmd_train(args):
    _check_out_dir(args.out)
    graph, table = _load_dataset_arg(args.dataset)
    cfg = _build_config(args)
    results, agg = run_experiment(graph, table, cfg)
    make_dir(args.out)
    for i, res in enumerate(results):
        stem = os.path.join(args.out, f"run_seed{res.seed}_split{i}")
        _write_json(stem + ".json", res.to_dict())
        save_checkpoint(stem + ".ckpt.json", res.params,
                        meta={"config_hash": cfg.config_hash(), "seed": res.seed,
                              "mode": cfg.mode, "library_version": __version__})
    payload = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
               "mode": cfg.mode, "optimizer": cfg.optimizer,
               "library_version": __version__, "aggregate": agg}
    _write_json(os.path.join(args.out, "aggregate.json"), payload)
    print(f"mode {cfg.mode}  runs {agg['n_runs']}  (mean(std) over splits)")
    for name in SUMMARY_METRICS:
        cell = agg[name]
        print(f"  {name:9s} {cell['mean']:7.2f} ({cell['std']:.2f})")
    return 0


def cmd_evaluate(args):
    if args.json:
        _check_out_file(args.json)
    graph, table = _load_dataset_arg(args.dataset)
    stored, graph, splits = _stored_run(args.report, graph, table.n,
                                        fields=("splits", "test"))
    _, probs = _checkpoint_on(graph, table, args.checkpoint)
    report = evaluate_predictions(probs, table.labels.class_label,
                                  table.labels.sensitive, mask=splits.test)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if args.json:
        _write_json(args.json, payload)
    mismatches = {k: (payload[k], stored["test"].get(k))
                  for k in SUMMARY_METRICS if payload[k] != stored["test"].get(k)}
    if mismatches:
        print(f"stored report differs: {mismatches}", file=sys.stderr)
        return 1
    print("matches stored report")
    return 0


def cmd_grid(args):
    _check_out_dir(args.out)
    graph, table = _load_dataset_arg(args.dataset)
    cfg = _build_config(args)
    grid = read_json(args.grid_json, "grid") if args.grid_json else DEFAULT_GRID
    cells = grid_search(graph, table, cfg, grid)
    make_dir(args.out)
    _write_json(os.path.join(args.out, "grid.json"),
                {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
                 "library_version": __version__,
                 "cells": [c.to_dict() for c in cells]})
    print(f"{len(cells)} cells, best first:")
    for cell in cells[: args.top]:
        print(f"  score {cell.mean_val_score:8.3f} ({cell.std_val_score:.3f})  "
              f"{cell.params}")
    return 0


def cmd_verify(args):
    if args.json:
        _check_out_file(args.json)
    passed, reports = run_suites(n_graphs=args.graphs, seed=args.seed)
    payload = {"passed": passed, "graphs": args.graphs, "seed": args.seed,
               "tolerance": IDENTITY_TOL,
               "max_identity_residual": max(r.max_residual for r in reports),
               "suites": [r.to_dict() for r in reports]}
    if args.json:
        _write_json(args.json, payload)
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:9s} {status}  graphs={r.graphs_checked} "
              f"cases={r.cases_checked} max_residual={r.max_residual:.3e}")
    if not passed:
        first = next(r.counterexample for r in reports if not r.passed)
        print("counterexample: " + json.dumps(first), file=sys.stderr)
        return 1
    return 0


def cmd_synth(args):
    cfg = SynthConfig(n=args.n, target_hr_c=args.hr_c, target_hr_s=args.hr_s,
                      mean_degree=args.mean_degree, seed=args.seed,
                      class_signal=args.class_signal,
                      sensitive_signal=args.sensitive_signal)
    graph, table = synth_generate(cfg)
    # an edgeless draw has no ratios; it fails here, before any file exists
    hr_c, hr_s = homophily_ratios(graph, table.labels)
    write_dataset(args.out, graph, table)
    print(f"wrote {args.out}: n={graph.n} m={graph.m} "
          f"hr_c={hr_c:.3f} hr_s={hr_s:.3f}")
    return 0


def cmd_export(args):
    _check_out_file(args.out)
    graph, table = _load_dataset_arg(args.dataset)
    split_names = ["unlabeled"] * table.n
    if args.report:
        _, graph, splits = _stored_run(args.report, graph, table.n)
        for name, ids in splits.to_dict().items():
            for i in ids:
                split_names[i] = name
    latent, _ = _checkpoint_on(graph, table, args.checkpoint)
    export_embeddings(args.out, latent.c, latent.e, table.labels,
                      split_names)
    print(f"wrote {args.out} ({table.n} rows, "
          f"{4 + latent.c.shape[1] + latent.e.shape[1]} columns)")
    return 0


# ---------------------------------------------------------------------------
# parser

def _at_least_one(text):
    """argparse type of a count flag: a whole number >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return value


def _add_config_flags(p):
    """The flags `_build_config` reads for every command that trains."""
    p.add_argument("--config")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)


def _add_weight_flags(p):
    for flag, default in WEIGHT_FLAGS.items():
        p.add_argument(f"--{flag}", type=type(default), default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairgraph",
        description="Fairness-aware graph editing and fair GNN training")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="lowest level of the package's log records shown "
                             "on stderr (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="edge census and homophily ratios")
    p.add_argument("--dataset", required=True)
    p.add_argument("--json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("edit", help="remove Type III edges and report shifts")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("pretrain", help="phase 1: pre-training and the mode's edit")
    p.add_argument("--dataset", required=True)
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="three-phase training over splits")
    p.add_argument("--dataset", required=True)
    _add_config_flags(p)
    p.add_argument("--splits", type=_at_least_one, help="number of random splits")
    p.add_argument("--out", required=True)
    _add_weight_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="re-evaluate a stored checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True,
                   help="run report JSON holding the split masks")
    p.add_argument("--json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="hyper-parameter grid search")
    p.add_argument("--dataset", required=True)
    _add_config_flags(p)
    p.add_argument("--splits", type=_at_least_one)
    p.add_argument("--grid-json", help="JSON file {param: [values]}")
    p.add_argument("--top", type=_at_least_one, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("verify", help="randomized edit-identity suites")
    p.add_argument("--graphs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="write a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--hr-c", type=float, default=0.6)
    p.add_argument("--hr-s", type=float, default=0.8)
    p.add_argument("--mean-degree", type=float, default=8.0)
    p.add_argument("--class-signal", type=float, default=1.2)
    p.add_argument("--sensitive-signal", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export", help="write latent embeddings as CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", help="run report JSON for split names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def _configure_logging(level):
    """Show the package's records at `level` and above on stderr; other
    libraries keep the root logger's level."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("fairgraph").setLevel(level.upper())


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep that contract
        return int(exc.code) if exc.code else 0
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FairGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
