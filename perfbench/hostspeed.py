"""The host's current speed, sampled while a workload runs.

Other tenants of a shared host slow this process by up to 1.6x, in phases
that last from seconds to minutes, and the process cannot see them: its CPU
time grows as fast as its wall time. A fixed reference kernel slows with
it. While a `Sampler` is entered, a timer interrupts the process every
`PERIOD_S` and runs the kernel once: `REPEATS` rounds of a gather,
`|difference| ** 1.5` and a `bincount` on a fixed 729-vertex, 2,000-edge
array set, the operations of varopt's edge kernels. Each slice records its
start and duration; one more slice runs on entry and one on exit. The time
spent in slices is kept apart, so that callers can take it out of the times
they measure.

`normalized(seconds, start, end)` scales a measured time to the host speed
at which one slice takes `REF_SLICE_S`, using the mean slice time from one
period before `start` to one period after `end`.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25
REPEATS = 200
# one slice's time on an unloaded host: the unit of normalized times
REF_SLICE_S = 0.004
_N, _EDGES, _SEED = 729, 2000, 20261017


class Sampler:
    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self._x = rng.standard_normal(_N)
        self._heads = rng.integers(0, _N, _EDGES)
        self._tails = rng.integers(0, _N, _EDGES)
        self.slices = []
        self.busy_s = 0.0

    def kernel(self):
        x, heads = self._x, self._heads
        for _ in range(REPEATS):
            w = np.abs(x[heads] - x[self._tails]) ** 1.5
            np.bincount(heads, weights=w, minlength=_N)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.kernel()
        d = time.perf_counter() - t
        self.slices.append((t, d))
        self.busy_s += d

    def __enter__(self):
        self.kernel()  # warm-up, not recorded
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def slice_s(self, start, end):
        """Mean slice time from one period before start to one after end."""
        near = [d for t, d in self.slices if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:  # a long C call held the timer back: take the closest slice
            near = [min(self.slices, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return sum(near) / len(near)

    def normalized(self, seconds, start, end):
        return seconds * REF_SLICE_S / self.slice_s(start, end)
