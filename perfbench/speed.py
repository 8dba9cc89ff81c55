"""Machine-speed probe, used to put time metrics on a steady scale.

On a shared VM the speed of the same code drifts by 20-40% over minutes,
with other tenants' load. A fixed probe, timed right before and right after
each measured operation, drifts with it. The benchmark reports
`operation time * PROBE_REF_S / probe time`, with the probe time the mean of
the probes before and after the operation. That is the operation's time in
seconds at the speed at which the probe takes PROBE_REF_S. The raw wall
times are printed next to it.

The probe does a fixed amount of the kinds of work that fairgraph spends
its time on: a scatter-add over a neighbour list, a dense matmul, an n×n
product with top-k selection, and interpreter-bound parsing. It uses no
fairgraph code, so a change to fairgraph cannot move it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# median probe time by thread count, on the 2-vCPU VM (Python 3.11.7,
# numpy 2.4.6, one BLAS thread) where the benchmark was calibrated
PROBE_REF_S = {1: 0.27, 2: 0.17}
PROBE_ROUNDS = 12

_rng = np.random.default_rng(0)
_ROWS = _rng.integers(0, 1000, 40_000)
_COLS = _rng.integers(0, 1000, 40_000)
_X = _rng.standard_normal((1000, 16))
_W = _rng.standard_normal((32, 16))
_TEXT = ",".join(str(i) for i in range(20_000))


def _probe_work(rounds):
    for _ in range(rounds):
        acc = np.zeros_like(_X)
        np.add.at(acc, _ROWS, _X[_COLS])
        np.hstack([_X, acc]) @ _W
        np.argpartition(_X @ _X.T, 5, axis=1)
        sum(int(t) for t in _TEXT.split(","))


def probe_seconds(threads=1):
    """Wall time of PROBE_ROUNDS rounds of probe work, split over `threads`
    threads so that the probe contends for cores and the GIL as the
    workload does."""
    start = time.perf_counter()
    if threads == 1:
        _probe_work(PROBE_ROUNDS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_probe_work, PROBE_ROUNDS // threads)
                       for _ in range(threads)]
            for future in futures:
                future.result()
    return time.perf_counter() - start


class Scaled:
    """Durations of measured operations, each followed by a probe;
    `scaled()` gives each operation's time at the reference speed."""

    def __init__(self, threads=1):
        self.threads = threads
        self.raw = []
        self.probes = [probe_seconds(threads)]

    def add(self, seconds):
        """Record an operation that has just ended, then probe."""
        self.raw.append(seconds)
        self.probes.append(probe_seconds(self.threads))

    def scaled(self):
        ref = PROBE_REF_S[self.threads]
        return [t * 2 * ref / (before + after)
                for t, before, after in zip(self.raw, self.probes, self.probes[1:])]
