"""How fast the host runs Python, sampled while the program runs.

The machine the benchmark was tuned on runs the same work at two speeds
about 1.6-2x apart. It switches between them both within a second and in
phases of tens of seconds (README.md, "Noise on this machine"), so a run
that lands in a slow phase reads slow on every metric, whatever statistic
it takes over its repetitions. The benchmark therefore samples the host's
speed while the program runs: a SIGALRM timer interrupts the worker every
PERIOD_S and times one pass of a fixed reference loop. A rep's times are
then taken less the time spent in samples, and multiplied by REFERENCE_S /
(mean sample time during the rep): the time the rep would have taken on a
host that runs the reference loop in REFERENCE_S. The loop is part of the
benchmark, not of the program, so a change to the program does not
change the loop; it runs on the same core and in the same moments as the
program.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from heapq import heappop, heappush
from time import perf_counter

# Seconds one reference loop takes in the fast phase of a 2-vCPU Intel
# Xeon VM (2.0 GHz) under Python 3.11. It is only a scale: it makes scaled
# seconds read close to that host's fast-phase seconds.
REFERENCE_S = 0.000525
PERIOD_S = 0.02
_STEPS = 1000


def reference_loop() -> float:
    """Host seconds of one pass of a fixed pure-Python loop.

    Like the engine's event loop it pushes to and pops from a heap and
    counts into a dict; it allocates no object that the garbage collector
    tracks, so the program's live objects do not slow it down.
    """
    heap: list[int] = []
    counts: dict[int, int] = {}
    x = 12345
    start = perf_counter()
    for _ in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, x)
        if len(heap) > 64:
            y = heappop(heap) & 4095
            counts[y] = counts.get(y, 0) + 1
    return perf_counter() - start


class SpeedSampler:
    """Reference-loop samples taken every PERIOD_S of wall time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        self.starts.append(start)
        self.seconds.append(reference_loop())

    def _between(self, begin: float, end: float) -> list[float]:
        return self.seconds[bisect_left(self.starts, begin):bisect_left(self.starts, end)]

    def covered(self, begin: float, end: float) -> float:
        """Seconds spent sampling in [begin, end)."""
        return sum(self._between(begin, end))

    def scale(self, begin: float, end: float) -> float:
        """REFERENCE_S over the mean sample in [begin, end); with no sample
        there, one reference loop is timed now."""
        samples = self._between(begin, end) or [reference_loop()]
        return REFERENCE_S * len(samples) / sum(samples)
