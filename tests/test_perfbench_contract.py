"""The benchmark's contract with the package: the names `perfbench` rebinds,
the spans and counts its worker reads, and the fields its output checks use.

`perfbench --trace 1` wraps fairgraph's entry points from outside and reads
result fields (`cf.e_ids`, `MODE_FLAGS[mode]["edit"]`, ...). A change that
renames or deletes one of them breaks the benchmark without failing any
other test; this one runs a tiny traced workload the way the worker does.
"""

import os
import sys

from fairgraph import data, model, pipeline, verify
from fairgraph.data import SynthConfig, synth_generate
from fairgraph.losses import LossWeights

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_traced_workload_records_every_span_and_count(tmp_path):
    wl = workloads.Workload(
        name="contract",
        synth=dict(n=80, target_hr_c=0.6, target_hr_s=0.8, mean_degree=6.0),
        cfg=pipeline.TrainConfig(
            weights=LossWeights(alpha=1, beta=1, gamma=1, omega=0.3, eta=0.09,
                                k=3, k_prime=3),
            lr=0.01, T_pre=2, T_train=3, refresh_period=2, mode="HSCCAF",
            optimizer="adam"),
        n_seeds=2)
    graph, table = synth_generate(SynthConfig(seed=5, **wl.synth))
    spec = data.write_dataset(str(tmp_path / "contract"), graph, table)
    untraced = workloads.run_call(wl, graph, table, 5)

    rec = tracing.Recorder(0)
    restore = tracing.instrument(rec)
    try:
        worker.load_for_training(spec)
        out = workloads.run_call(wl, graph, table, 5)
        suites = verify.run_suites(n_graphs=3)
    finally:
        restore()
    assert pipeline.encode is model.encode
    assert pipeline.fair_edge_remove is verify.fair_edge_remove

    values = worker.per_layer_values(wl, rec, 1, [1.0])
    recorded = {span[1] for span in rec.spans}
    read = [key[:-len(".calls")] for key in values if key.endswith(".calls")]
    assert read and set(read) <= recorded, sorted(set(read) - recorded)
    assert {"pipeline.run_single", wl.root_span, "verify.run_suites"} <= recorded
    for key in ("cf_pairs", "cf_slots", "sc_pairs", "verify_cases"):
        assert rec.counts[key] > 0, key

    # one reverse pass per epoch, and two forward neighbour means per
    # encoder pass: the spans the benchmark's per-layer numbers divide
    calls = {name: sum(span[1] == name for span in rec.spans)
             for name in ("autodiff.grad", "autodiff.row_mean_neighbors", "model.encode")}
    assert calls["autodiff.grad"] == wl.epochs_per_call() == 10
    assert calls["autodiff.row_mean_neighbors"] == 2 * calls["model.encode"] > 0

    assert workloads.check_output(wl, out) == []
    assert workloads.fingerprint(wl, out) == workloads.fingerprint(wl, untraced)
    assert set(workloads.quality(wl, out)) == {"test_bacc", "test_auc", "test_dsp",
                                               "test_deo"}
    assert workloads.check_output(workloads.WORKLOADS["verify"], suites) == []


def test_training_workloads_run_the_default_optimisation_path():
    """The benchmark times the path `fairgraph train` takes by default: a
    workload's config departs from TrainConfig() only in what the workload
    is about, never in how it optimises."""
    default = pipeline.TrainConfig().to_dict()
    for wl in workloads.WORKLOADS.values():
        if wl.trains:
            cfg = wl.cfg.to_dict()
            differ = {key for key in default if cfg[key] != default[key]}
            assert differ <= {"weights", "T_pre", "T_train", "mode"}, (wl.name, differ)
