"""Host-speed normalization against an interleaved reference kernel.

The host's speed drifts by tens of percent on sub-second timescales, and
process CPU time drifts with it, so neither longer runs nor a CPU clock
remove the drift.  Every timing is therefore reported at a nominal host
speed::

    normalized = wall * NOMINAL_REF_S / local

``local`` comes from the reference-kernel samples taken next to the
timed interval (see ``RefClock.local``); ``NOMINAL_REF_S`` is a constant
fixed here once and never re-measured per run (a per-run value would
cancel a real slowdown along with the drift).

The kernel is pure Python, takes about 1 ms, allocates no GC-tracked
object, keeps a 256-entry working set (so it never evicts the program's
cache) and never calls the program.  Samples are interleaved with the
timed work so that they cost about ``REF_SHARE`` of the run.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy
from scipy.special import betainc

#: The reference kernel's duration on the nominal host (seconds).
NOMINAL_REF_S = 1.0e-3
#: Share of the measured run spent in the reference kernel.
REF_SHARE = 0.10
#: An interval's local speed comes from this many kernel samples on each
#: side of it.
NEIGHBOURS = 8

_TABLE = list(range(256))


def reference_kernel(table: list = _TABLE) -> int:
    """Fixed integer/list work; every value stays a plain int in 0..0xFFFF
    or a table entry in 0..255, so nothing GC-tracked is allocated."""
    acc = 7
    i = 0
    while i < 4000:
        acc = (acc * 33 + table[(acc ^ i) & 255] + i) & 0xFFFF
        table[i & 255] = acc & 255
        i += 1
    return acc


class RefClock:
    """Reference-kernel samples interleaved with timed work."""

    def __init__(self):
        self.times: list[float] = []     # sample midpoints
        self.durations: list[float] = []
        self._debt = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        return end - start

    def pay(self, worked: float):
        """Run kernel samples worth ``REF_SHARE`` of the run for
        ``worked`` seconds of timed work just done."""
        self._debt += worked * REF_SHARE / (1.0 - REF_SHARE)
        while self._debt > 0:
            self._debt -= self.sample()

    def local(self, start: float, end: float) -> float:
        """Kernel duration next to ``[start, end]``: the mean of the
        median of the ``NEIGHBOURS`` samples before it and the median of
        those after it.  Samples are only taken between timed intervals;
        when the host changes speed during a long one, the two sides
        differ and their mean splits the difference instead of picking
        one side."""
        first = bisect_left(self.times, start)
        last = bisect_right(self.times, end)
        sides = [side for side in (
            self.durations[max(0, first - NEIGHBOURS):first],
            self.durations[last:last + NEIGHBOURS]) if side]
        return statistics.fmean(statistics.median(side) for side in sides)

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking a wall time in ``[start, end]`` to nominal."""
        return NOMINAL_REF_S / self.local(start, end)

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: the mean of all
    order statistics weighted by a Beta(q(n+1), (100-q)(n+1)) density,
    so the estimate moves smoothly instead of jumping between the two
    samples next to the rank (a hundred multi-second operations hold
    only ten samples beyond their 90th percentile)."""
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1),
                    numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(edges), ordered))
