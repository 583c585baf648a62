"""Machine-speed reference that every reported timing is scaled by.

The benchmark runs on shared virtual machines whose speed drifts for
tens of seconds at a time: on a 2-vCPU machine, 1-second windows of
one workload ranged from 194 to 337 ops/s within 40 seconds, and CPU
time per op drifted with wall time, so longer runs and medians alone
do not make two runs agree.  A fixed reference kernel that never calls
cohomlab (banded Cholesky solves, vector norms and a Python loop, the
same kinds of work as the program) is timed between ops.  A timing t
is reported as t * REFERENCE_S / r, where r is the median of the last
WINDOW reference times: the time the op would take on a machine that
runs the kernel in REFERENCE_S.  The raw timings and the scale factors
are kept in each run's record.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

REFERENCE_S = 2.5e-3   # the kernel's time on a quiet 2.1 GHz Xeon vCPU
WINDOW = 5
EVERY_S = 0.05         # re-measure after this much op time


def kernel() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    n = 2048
    ab = np.empty((2, n))
    ab[0] = -1.0
    ab[1] = 4.0
    cb = cholesky_banded(ab)
    x = np.linspace(0.0, 1.0, n)
    acc = 0.0
    for i in range(40):
        y = cho_solve_banded((cb, False), x)
        x = y / np.linalg.norm(y)
        acc += float(x @ x)
    for i in range(2000):
        acc += (i % 7) * 1.5
    return time.perf_counter() - t0


class Speed:
    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        self.scales = []
        self.since = 0.0
        kernel()  # first call pays one-off costs
        for _ in range(WINDOW):
            self.recent.append(kernel())

    def scale(self, elapsed: float) -> float:
        """Scale for a timing that just ended, re-measuring the kernel
        once EVERY_S of timings have passed since the last time."""
        self.since += elapsed
        if self.since >= EVERY_S:
            self.recent.append(kernel())
            self.since = 0.0
        s = REFERENCE_S / statistics.median(self.recent)
        self.scales.append(s)
        return s

    def median_scale(self) -> float:
        return statistics.median(self.scales) if self.scales else \
            REFERENCE_S / statistics.median(self.recent)
