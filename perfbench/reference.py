"""A fixed reference kernel that measures the host's current speed.

The machine the benchmark runs on is shared: the same item can take 30-50%
longer while other tenants load the host, and such phases last from seconds
to minutes, longer than one run. Every end-to-end time is therefore divided
by the host's speed factor, measured by this kernel run between items: the
kernel's time at the moment, over its nominal time on the reference machine.
The kernel is benchmark code that no change to loracell touches, and it
mixes interpreter work with NumPy array work, as the workloads do. Raw host
times are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel time between items on the reference machine (2 cores, Intel Xeon,
# Python 3.11.7, numpy 2.4.6) in its faster state, so that scaled times read
# close to raw ones there; only ratios to it matter.
NOMINAL_S = 1.0e-3
WINDOW = 1                  # kernel samples on each side of an item

_DATA = np.random.default_rng(20200306).random(40_000)


def kernel_seconds() -> float:
    """Run the kernel once and return its duration."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(3_000):
        acc += (i % 7) * 0.5
    ordered = np.sort(_DATA)
    acc += float((np.cumsum(ordered) * 1.5 + _DATA ** 1.3)[-1])
    return perf_counter() - t0


def speed_factors(samples: list[float]) -> list[float]:
    """Slowdown at each sample: the median of the samples within WINDOW of it,
    over NOMINAL_S."""
    return [statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1]) / NOMINAL_S
            for i in range(len(samples))]
