"""Full-length reference: one untraced and one traced `german` run at the
paper's epoch counts (T_pre = T_train = 100), printed as a span table.

This relates the benchmark's short runs to full-length numbers. Run from the
repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        python3 perfbench/reference.py --seed 1
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

import tracing
from workloads import WORKLOADS, check_output, make_inputs, quality, run_call

PAPER_EPOCHS = 100


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    base = WORKLOADS["german"]
    wl = replace(base, cfg=replace(base.cfg, T_pre=PAPER_EPOCHS, T_train=PAPER_EPOCHS))
    graph, table, ceiling = make_inputs(wl, args.seed)

    start = time.perf_counter()
    out = run_call(wl, graph, table, args.seed)
    untraced = time.perf_counter() - start
    problems = check_output(wl, out)

    rec = tracing.Recorder(run_id=args.seed)
    restore = tracing.instrument(rec)
    try:
        traced_out = run_call(wl, graph, table, args.seed)
    finally:
        restore()
    if quality(wl, traced_out) != quality(wl, out):
        problems.append("traced run differs from the untraced run")

    totals = tracing.span_totals(rec.spans)
    root = totals[wl.root_span][1]
    print(f"german, seed {args.seed}, T_pre = T_train = {PAPER_EPOCHS}, m = {graph.m}")
    print(f"untraced run_s {untraced:.3f} s; traced root {root:.3f} s; "
          f"overhead {root - untraced:+.3f} s; peak RSS {tracing.rss_hwm_mb():.0f} MiB")
    print(f"noise ceiling BACC {ceiling:.1f}; test {quality(wl, out)}")
    print(f"{'span':<34}{'calls':>7}{'s':>9}{'self_s':>9}{'share':>8}")
    for name, (calls, total, self_time) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<34}{calls:>7}{total:>9.3f}{self_time:>9.3f}{total / root:>8.1%}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
