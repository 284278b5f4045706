"""The CPU speed of this host, sampled while the benchmark measures.

On a shared machine the same probing session takes anywhere from 1x to
2x its quiet time, and the speed swings within seconds.  So every
``PERIOD`` seconds a SIGALRM handler, in the process doing the work,
times a fixed pure-Python slice of the benchmark's own with the
thread's CPU clock.  ``scale`` for an interval is ``REFERENCE / mean
slice time`` during it (the mean, because a duration is the speed
averaged over its interval): a duration times its scale is the duration
at the reference speed, which is what every reported time is.  The
program under test never runs the slice, so a change to it cannot move
the scale.  Sampling costs about 1% of the run, on every commit alike.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Callable, Dict, Iterator, List, Tuple

PERIOD = 0.05
#: slice time at the reference speed (the fast state of a 2-core
#: 2.1 GHz VM)
REFERENCE = 0.00037


def _slice() -> int:
    x = 0
    table: Dict[int, int] = {}
    for k in range(3000):
        table[k & 1023] = x
        x += k * k % 7
    return x


class HostSpeed:
    """Speed samples ``(perf_counter time, slice seconds)`` of one
    process's main thread."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    @contextlib.contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _sample(self, _signum, _frame) -> None:
        at = time.perf_counter()
        cpu = time.thread_time()
        _slice()
        self.samples.append((at, time.thread_time() - cpu))

    def mean_slice(self, start: float = float("-inf"),
                   end: float = float("inf")) -> float:
        """Mean slice time over ``[start, end]`` widened by one period
        either side; the reference when nothing was sampled."""
        inside = [d for t, d in self.samples
                  if start - PERIOD <= t <= end + PERIOD]
        return statistics.fmean(inside) if inside else REFERENCE

    def scale(self, start: float, end: float) -> float:
        return REFERENCE / self.mean_slice(start, end)

    def timed(self, fn: Callable, *args):
        """(result, seconds at the reference speed) of ``fn(*args)``."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, (end - start) * self.scale(start, end)
