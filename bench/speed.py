"""Reference work timed beside the items, to take the host's speed out of item times.

The benchmark's virtual CPUs share host cores with other tenants. While a
neighbour is busy every instruction here runs up to twice as slowly, in
phases that last minutes, so raw times of the same code on the same seed
differ by 30% or more between runs. A fixed piece of reference work that
does not touch the library, timed just before every item, slows down by
the same factor at the same moments. Each round's item times are divided
by the mean reference time of that round and multiplied by the reference
time at full speed (`nominal`), which gives the item times the same host
would show with its cores to itself.

Two kinds of reference work, matching what the items do:

- `kernel_s`: small numpy operations driven from a Python loop, as the
  library's own code is; for items run inside the benchmark process.
- `startup_s`: a fresh interpreter that imports numpy; for items that are
  whole `python -m anglebound` processes, whose cost is start-up and imports.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# Reference times at full speed on the reference machine (2 cores, Python 3.11,
# numpy 2.4): the fastest twentieth of several thousand timings.
KERNEL_NOMINAL_S = 1.2e-3
STARTUP_NOMINAL_S = 0.13

_PTS = np.random.default_rng(0).normal(size=(12, 3))


def _kernel() -> float:
    gram = _PTS @ _PTS.T
    norms = np.sqrt(np.diag(gram))
    acc = float(np.min(gram / np.outer(norms, norms)))
    w = _PTS[0]
    for i in range(200):
        v = _PTS[i % 12] - _PTS[(7 * i + 1) % 12]
        c = float(np.dot(v, w)) / (float(np.linalg.norm(v)) * float(np.linalg.norm(w)) + 1e-12)
        acc += math.acos(max(-1.0, min(1.0, c)))
    return acc


def kernel_s() -> float:
    """Median of three timings of the in-process reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def startup_s(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def scale(times: list[list[float]], refs: list[list[float]], nominal: float) -> list[list[float]]:
    """Item times at full speed: each round divided by its mean reference time."""
    return [[t * nominal / statistics.fmean(r) for t in ts] for ts, r in zip(times, refs)]
