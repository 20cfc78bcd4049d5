"""How fast the host runs at the moment, from a fixed reference computation.

The benchmark runs on a shared VM whose speed drifts by up to 2x from one
30-second run to the next, as other guests load the cores and caches; CPU
time does not hide this, because the code itself runs slower.  So a run
times ``reference()`` ``PER_TICK`` times every ``EVERY`` seconds between
its operations, and every timing it reports is scaled by
``REFERENCE_S / median(samples)``: it reads as the time the operation
takes when the reference takes ``REFERENCE_S``.  The reference does not touch laplace_ode, so a change to
the program moves the operation times and leaves the reference where it
was.

The reference is complex numpy arithmetic on arrays of a few thousand
points, the size of a contour's node set.  Over five 30-second runs of each
workload at a noisy time, scaling by it cut the spread (interquartile range
over median) of ops_per_s and op_p50_ms from 0.19-0.39 to 0.06-0.14; a
pure-Python reference tracked analysis-sweep worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3    # CPU seconds of reference() on the idle 2-core VM
EVERY = 0.25            # seconds of wall time between ticks
PER_TICK = 3            # samples a tick takes; an analysis job spans 1-5 s,
                        # so its runs get a tick before each job only


def reference():
    a = np.linspace(0.0, 1.0, 4000) + 0j
    for _ in range(40):
        a = np.exp(-a * a) + np.log1p(np.abs(a))
    return a


def sample() -> float:
    """CPU seconds of one reference()."""
    c0 = time.process_time()
    reference()
    return time.process_time() - c0


class Gauge:
    """Reference samples taken between operations, PER_TICK at most once per
    EVERY seconds."""

    def __init__(self):
        self.samples = []
        self._next = 0.0

    def tick(self):
        if time.perf_counter() >= self._next:
            self.samples += [sample() for _ in range(PER_TICK)]
            self._next = time.perf_counter() + EVERY

    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
