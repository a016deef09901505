"""Host speed, measured beside and during every op, to scale timings to a
nominal host.

The benchmark runs on machines shared with other work. There the same
pure-Python code can run 1.8 times slower from one half-minute to the next,
which no number of passes averages away. So the harness times a
fixed burst of the kinds of work the program does (exact rational
elimination, integer incidence sets, object and dict traffic) before every
op and, from a SIGPROF handler, every PERIOD_S of CPU time inside long ops.
It scales each measured interval by NOMINAL_S over the median burst around
it, after taking out the time the bursts inside it took. The burst is the
benchmark's own code: no change to the program can move it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

# The burst's time on one vCPU of a 2.1 GHz Xeon (Python 3.11) when the
# host is quiet. Scaled times read as seconds on that vCPU.
NOMINAL_S = 3.8e-3
# A time is scaled by the median of the bursts within it and up to WINDOW
# places before and after it.
WINDOW = 8
# CPU seconds between bursts inside an op: about 3% of the op's time.
PERIOD_S = 0.2
_N = 7


def _eliminate() -> Fraction:
    """Gauss-Jordan elimination of a Hilbert system over Fraction."""
    rows = [[Fraction(1, i + j + 1) for j in range(_N + 1)] for i in range(_N)]
    for c in range(_N):
        piv = rows[c][c]
        rows[c] = [v / piv for v in rows[c]]
        for r in range(_N):
            if r != c:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows[0][-1]


def _incidence() -> int:
    """Sign patterns of integer dot products, then their pairwise
    intersections, as in a double description adjacency test."""
    pts = [tuple((7 * i + 5 * j * j + i * j) % 19 - 9 for j in range(6)) for i in range(60)]
    sets = [
        frozenset(i for i, p in enumerate(pts) if sum(a * b for a, b in zip(p, q)) >= 0)
        for q in pts[:20]
    ]
    return sum(len(s & t) > 15 for s in sets for t in sets)


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _records() -> int:
    """Object, attribute and dict traffic, as in building a report."""
    table = {}
    for i in range(1500):
        rec = _Record(str(i % 97), i)
        table[rec.key] = rec.value * 3 % 1009
    return len(table)


def _mix():
    return _eliminate(), _incidence(), _records()


class Sampler:
    """Burst times of one run, in the order they were taken."""

    def __init__(self):
        self.starts: list[float] = []
        self.bursts: list[float] = []
        # Seconds spent in bursts so far; an interval subtracts its share.
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a signal during a burst; that burst is enough
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _mix()
            took = time.perf_counter() - t0
            self.starts.append(t0)
            self.bursts.append(took)
            self.spent += took
        finally:
            self._busy = False

    @contextlib.contextmanager
    def periodic(self, period: float):
        """Also sample every `period` seconds of CPU time (never if 0)."""
        if not period:
            yield
            return
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, t0: float, t1: float) -> float:
        """The factor for a time measured between perf_counter times t0, t1:
        NOMINAL_S over the median of the bursts inside it and of WINDOW
        bursts on either side.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return NOMINAL_S / statistics.median(self.bursts[max(0, lo - WINDOW):hi + WINDOW])
