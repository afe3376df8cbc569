"""Rescale measured times to a reference machine speed.

The machines this benchmark runs on are shared, and their speed drifts: on
the 2-core VM where it was defined, a fixed pure-Python loop took anywhere
from 0.6 to 2 ms, in phases lasting seconds to minutes. Both Python-bound
and numpy-bound csplab trials slowed by similar factors in the same phases.
The variation between 25-second runs was therefore 15-35% (IQR/median). No
run length the time budget allows averages that away.

So the worker runs a fixed calibration loop between trials, at most every
CAL_INTERVAL_S, and rescales each stretch of measured time by
CAL_REF_S / (median time of the nearby calibration runs). A result then
reads as if the machine had run the loop in CAL_REF_S, which is about its
undisturbed speed on that VM. The loop mixes interpreter work with small
numpy calls, as csplab trials do; it touches nothing of csplab, so a change
to csplab cannot move it. In a 4-minute trace of analog-groups this cut the
spread of 20-second windows from 23% to 4% for throughput and from 33% to
5% for the median trial time. The raw wall-clock figures are printed next
to the rescaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

CAL_LOOPS, CAL_CALLS = 8_000, 200
CAL_REF_S = 0.0005  # the loop's time on the defining VM when undisturbed
CAL_INTERVAL_S = 0.05
NEIGHBOURS = 2  # calibration runs on each side of a stretch that set its speed


_SMALL = np.zeros(256)


def calibrate() -> float:
    """Time one run of the fixed loop, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    for _ in range(CAL_CALLS):
        np.add(_SMALL, 1.0)
    return time.perf_counter() - start


class SpeedLog:
    """Calibration runs at known times, and the rescaling they imply.

    ``mark()`` runs the loop now; call it at the start and the end of the
    timed phase and ``maybe_mark()`` between trials.  Measured stretches
    between two marks are rescaled by the speed around them.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def mark(self) -> None:
        start = time.perf_counter()
        self.durations.append(calibrate())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def maybe_mark(self) -> None:
        if time.perf_counter() - self.ends[-1] >= CAL_INTERVAL_S:
            self.mark()

    def _factor(self, gap: int) -> float:
        """Scale of the stretch between mark ``gap`` and mark ``gap + 1``."""
        lo = max(0, gap - NEIGHBOURS + 1)
        near = self.durations[lo:gap + NEIGHBOURS + 1]
        return CAL_REF_S / statistics.median(near)

    def _gap_of(self, t: float) -> int:
        return max(0, bisect.bisect_right(self.ends, t) - 1)

    def scale(self, start: float, seconds: float) -> float:
        """Rescale a stretch that began at ``start`` and held no mark."""
        return seconds * self._factor(self._gap_of(start))

    def scaled_wall(self) -> float:
        """Time from the first mark to the last, without the marks
        themselves, rescaled stretch by stretch."""
        return sum((self.starts[g + 1] - self.ends[g]) * self._factor(g)
                   for g in range(len(self.durations) - 1))

    def speed(self) -> float:
        """Median machine speed over the log, as CAL_REF_S / loop time."""
        return CAL_REF_S / statistics.median(self.durations)
