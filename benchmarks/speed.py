"""Operation times at a fixed reference speed, on a host whose speed drifts.

The cores this benchmark runs on are shared, and the speed of the same
Python code on them drifts by up to half over spans of a second to
several minutes.  Wall times of one workload then spread too widely from
run to run to show a change of a quarter.  So the benchmark samples the
host's speed while it works and reports times at one fixed speed.

``Sampler`` sets an interval timer that raises SIGALRM every ``PERIOD_S``
of wall time.  The handler runs in this process, between bytecodes of
whatever walkzeta is doing, and times one fixed burst of pure-Python work
(``burst``: Fractions, small dicts of tuples, integer arithmetic, the
kinds of work walkzeta does).  An operation's time, less the bursts that
ran inside it, is scaled by ``NOMINAL_BURST_S`` over the mean length of
those bursts (of the nearest ones, for an operation too short to hold
``MIN_BURSTS``).  The bursts take 2-4 % of the time and are not counted.
Pool workers forked by walkzeta do not inherit the timer; their work is
scaled by the speed the parent process sees while it waits for them.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
MIN_BURSTS = 3
# Length of one burst on a 2-CPU Xeon host (Python 3.11.7) in a quick
# stretch; times are reported at this speed.
NOMINAL_BURST_S = 0.00025


def burst():
    """A fixed slice of pure-Python work."""
    total = Fraction(0)
    for k in range(1, 16):
        total += Fraction(k, k + 2) * Fraction(2 * k + 1, 3)
    table = {}
    for i in range(120):
        table[(i * 7919) % 211, i & 7] = [i] * 3
    acc = 0
    for i in range(400):
        acc += (i * i) ^ (acc >> 3)
    return total, len(table), acc


class Sampler:
    """Times one burst every ``PERIOD_S`` while active (a context manager)."""

    def __init__(self):
        self.ends: list[float] = []
        self.lengths: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        burst()
        end = time.perf_counter()
        self.ends.append(end)
        self.lengths.append(end - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.lengths)

    def busy_since(self, mark: int) -> float:
        """Seconds spent in bursts since ``mark``."""
        return sum(self.lengths[mark:])

    def scale(self, start: float, end: float) -> float:
        """Factor from the host's speed over [start, end] to reference speed.

        It uses the bursts that ran inside the interval, which saw the same
        caches and the same host as the work there; when fewer than
        ``MIN_BURSTS`` did, the ``MIN_BURSTS`` that ended nearest to it.
        """
        ends = self.ends
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        middle = (start + end) / 2
        while hi - lo < MIN_BURSTS and (lo > 0 or hi < len(ends)):
            if lo > 0 and (hi == len(ends) or middle - ends[lo - 1] <= ends[hi] - middle):
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            raise RuntimeError("no speed samples were taken")
        return NOMINAL_BURST_S * (hi - lo) / sum(self.lengths[lo:hi])
