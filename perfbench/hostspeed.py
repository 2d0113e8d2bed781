"""How fast the host runs during a run, from a fixed reference computation.

On a shared host, the same code runs faster or slower from one second or
minute to the next, in CPU time as much as in wall time, because of load
from outside the process. The benchmark times a reference computation
between training steps and predicts, about every half second, and scales
each timing sample by the host's speed around it. The reference is a BLAS
matrix-product loop and a pure-Python loop. It touches no meshmotion code,
so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# mean seconds of one sample on a 2-core Xeon VM with numpy 2.4 and
# OpenBLAS on one thread, in a quiet stretch; it only sets the scale
REFERENCE_S = 0.055
MATMULS = 100
LOOP = 500_000
# seconds of work between samples: about a tenth of a run goes to sampling
INTERVAL_S = 0.5


def _python_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class HostSpeed:
    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal((192, 192))
        # start and end stamps of every sample, in time order
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.spent_s = 0.0   # clock time spent sampling, for callers to exclude

    def sample(self, count: int = 1) -> None:
        """Time ``count`` runs of the reference computation."""
        for _ in range(count):
            t0 = time.perf_counter()
            for _ in range(MATMULS):
                self.a @ self.a
            _python_loop(LOOP)
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            self.spent_s += t1 - t0

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds over the mean of the samples around the interval
        [start, end]: the last one before it, any inside it and the first one
        after it. Below 1 when the host ran slow, so that a time times the
        factor reads as it would have at the reference speed."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
        around = [self.ends[i] - self.starts[i] for i in range(first, last + 1)]
        return REFERENCE_S / statistics.fmean(around)

    def scaled(self, start: float, end: float, seconds: float | None = None) -> float:
        """``seconds`` (by default the interval's length) at the reference
        speed."""
        return (end - start if seconds is None else seconds) * self.factor(start, end)

    def report(self) -> dict:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        return {"reference_s": REFERENCE_S, "samples": len(durations),
                "mean_s": statistics.fmean(durations),
                "quartiles_s": statistics.quantiles(durations, n=4)}
