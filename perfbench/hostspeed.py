"""Host speed reference: a fixed piece of work timed between invocations.

On a shared virtual machine the same invocation can take 50 % longer a few
minutes later, because other tenants load the host's cores, caches and
memory. The reference task below never changes, so its time tracks only
the host. Timed ``REPEATS`` times before every invocation and after the
last, its mean over a run gives the run's speed factor ``REFERENCE_S /
mean``; times multiplied by it read as seconds on the host at its usual
speed.

Means, not medians: the host often switches between a fast and a slow
speed for a few seconds at a time. The median of such a sample jumps
between the two speeds; the mean moves with the share of slow time, which
the reference task and the invocations see alike, so the share cancels
in the ratio of their means.

The work resembles what the workloads do: parsing a numeric CSV text in
pure Python, sorting and exponentiating a 16 MB array, and BLAS matrix
products (with whatever threads BLAS is allowed, as the CLI runs them).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# typical time of one reference task on the 2-vCPU host described in
# README.md; any fixed value works, this one keeps the scaled times close
# to the raw ones
REFERENCE_S = 0.12
# timings per measurement
REPEATS = 3


class Reference:
    """Times the reference work; ``factor()`` is the run's speed factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._text = "\n".join(",".join(f"{v:.17g}" for v in row)
                               for row in rng.standard_normal((2000, 32)).tolist())
        self._big = rng.standard_normal(2_000_000)
        self._mat = rng.standard_normal((400, 400))
        self.times: list[float] = []
        # the first run of the task is slower by ~15 % (allocation, caches)
        self.measure(1)
        self.times.clear()

    def measure(self, repeats: int = REPEATS) -> None:
        """Time the reference task ``repeats`` times in a row."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            rows = [[float(c) for c in line.split(",")] for line in self._text.splitlines()]
            b = np.sort(self._big * np.array(rows)[0, 0])
            np.exp(b, out=b)
            for _ in range(3):
                self._mat @ self._mat
            self.times.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.times)
