"""fairgraph benchmark: times the public calls of the training pipeline and
of the verify suites on four seeded workloads and checks their outputs.

Run from the repository root:

    python3 perfbench/run.py --workload german --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh worker process (`worker.py`) with one BLAS
thread, so its peak RSS is its own. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the exit
code is 0 only when every output check passed. See NOTES.md for what the
workloads are, what each metric points at, and recorded reference numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# named here, not imported from workloads.py, so that this parent process
# loads neither numpy nor fairgraph
WORKLOADS = ("german", "sparse-2k", "nba-caf", "verify")
THREADS = {"nba-caf": "2"}   # FAIRGRAPH_THREADS; every other workload uses 1
TIMEOUT_S = 170


def run_worker(workload, seed, seconds, trace):
    """Run one workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", FAIRGRAPH_THREADS=THREADS.get(workload, "1"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def main(argv=None):
    ap = argparse.ArgumentParser(description="fairgraph benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairgraph", "__init__.py")):
        print(f"no fairgraph sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, lines = run_worker(name, args.seed, args.seconds, args.trace)
        result = parse_result(lines[-1]) if code in (0, 1) and lines else None
        if result is None:
            print("\n".join(lines))
            print(f"worker for {name} exited with code {code} and no result",
                  file=sys.stderr)
            return 2
        if len(names) == 1:
            print("\n".join(lines))
            return code
        print("\n".join(lines[:-1]))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
