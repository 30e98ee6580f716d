"""The machine's speed, sampled while a workload runs, to adjust its times.

The shared virtual machine this benchmark runs on changes speed by 20-40 %
for seconds at a time; whole runs can land in a slow phase. Raw request
times then differ between runs of the same code by more than any change
worth measuring. So while the requests run, a timer interrupts them 50
times a second to time a fixed reference kernel (pure standard-library
Python: fractions, tuples, dicts and small integers, like qmzv's own work).
Each request's time is then scaled to the reference speed:

    adjusted = measured * REF_S / (median kernel time around the request)

``REF_S`` is the kernel's median time on the machine the baseline was taken
on, so adjusted times read as seconds there. The kernel does not use qmzv,
so a change to qmzv moves adjusted times exactly as it moves raw ones; only
the machine's drift is divided out. The time spent in the kernel is not
counted in any request.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# median kernel time, in s, on the baseline machine (2-core VM, Python 3.11.7)
REF_S = 2.0e-4
INTERVAL_S = 0.02
# samples within this many seconds either side of a request set its speed
WINDOW_S = 0.5
# kernel runs that bracket a stretch too short for the timer to have sampled
BRACKET = 25


def kernel():
    """A fixed piece of interpreter work, about 0.2 ms."""
    terms = {}
    x = Fraction(1, 3)
    for i in range(12):
        key = (i % 7, i % 5, i % 3)
        terms[key] = terms.get(key, 0) + x * i
        x = x * Fraction(i + 2, i + 1) + 1
    s = 0
    for i in range(600):
        s += i * i % 7
    return terms, s


class Speedometer:
    """Timer-driven kernel samples; ``paused`` is the time they took from the program.

    Use as a context manager around the timed phase. Request times are taken
    with ``time.perf_counter`` and ``paused`` before and after; ``factor``
    then gives the slowdown against the baseline machine over a stretch of
    time.
    """

    def __init__(self):
        self.times = []
        self.costs = []
        self.paused = 0.0
        self._previous = None

    def __enter__(self):
        self.bracket()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.bracket()
        return False

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - start

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.costs.append(t1 - t0)

    def bracket(self):
        """A burst of samples, so that even a run shorter than the timer's period has some."""
        for _ in range(BRACKET):
            self.sample()

    def factor(self, start, end):
        """Median kernel time from start - WINDOW_S to end + WINDOW_S, over REF_S.

        A window with fewer than BRACKET samples widens to the nearest
        BRACKET samples either side.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < BRACKET:
            lo, hi = max(0, lo - BRACKET), min(len(self.times), hi + BRACKET)
        return statistics.median(self.costs[lo:hi]) / REF_S
