"""Host speed probe: scales the benchmark's timings to a reference speed.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 2x over tens of seconds, for minutes at a
time: far longer than any one run can average away.  So every process
times a fixed computation of its own, made of the two kinds of work scx
spends its time on (fraction-free elimination on big integers, and
building sets of frozenset faces), every ``INTERVAL_S`` between
operations.  An operation's slowdown is the median time of the ``WINDOW``
probes nearest to it, divided by ``REFERENCE_S``, and its time is divided
by that.  A change to scx moves the timings and not the probe, which never
calls scx.

On rigidity-stress and classify-distinct the probe's time correlated at
about 0.9 with the time of the operations around it.  Over seven
rigidity-stress runs, dividing each operation's time by its local slowdown
cut the spread (interquartile range over median) of the run's wall time
from 0.20 to 0.03, of p50 from 0.24 to 0.05 and of p90 from 0.25 to 0.03;
one slowdown for the whole run left 0.08, 0.13 and 0.07.
"""

from __future__ import annotations

import bisect
import itertools
import random
import statistics
from time import perf_counter

#: typical probe time, in seconds, on the 2-vCPU VM with Python 3.11.7 that
#: the baseline was measured on; it only sets the scale of the timings
REFERENCE_S = 0.0075
#: probe at most this often, in seconds of measured work
INTERVAL_S = 0.25
#: probes whose median gives an operation's slowdown, about two seconds
WINDOW = 9

_rng = random.Random(0)
_MATRIX = [[_rng.randint(-(2**31), 2**31) for _ in range(20)] for _ in range(18)]


def _eliminate() -> int:
    m = [row[:] for row in _MATRIX]
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for i in range(rank + 1, nrows):
            fac = m[i][col]
            row_i, row_r = m[i], m[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * lead - fac * row_r[j]) // prev
            row_i[col] = 0
        prev = lead
        rank += 1
        if rank == nrows:
            break
    return rank


def _closure() -> int:
    faces = set()
    for facet in itertools.combinations(range(10), 5):
        for k in range(4):
            faces.update(frozenset(c) for c in itertools.combinations(facet, k))
    return len(faces)


def probe() -> float:
    """Seconds one fixed unit of work takes now."""
    start = perf_counter()
    _eliminate()
    _eliminate()
    _closure()
    return perf_counter() - start


class SpeedMeter:
    """Probes between operations; ``spent`` is the time the probes took."""

    def __init__(self):
        self.samples = []  # probe seconds
        self.stamps = []  # perf_counter() at the end of each probe
        self.spent = 0.0
        self._last = perf_counter()

    def sample(self, times: int = 1):
        for _ in range(times):
            t = probe()
            self.samples.append(t)
            self.stamps.append(perf_counter())
            self.spent += t
        self._last = perf_counter()

    def tick(self):
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S

    def slowdown_at(self, t: float) -> float:
        """Slowdown from the ``WINDOW`` probes nearest to time ``t``."""
        i = bisect.bisect(self.stamps, t)
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return statistics.median(self.samples[lo : lo + WINDOW]) / REFERENCE_S
