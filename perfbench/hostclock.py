"""A benchmark clock that scales time to a host of reference speed.

Other tenants of a shared host slow the interpreter by up to 2x in
stretches of a few seconds to minutes, while the process keeps ~99% of its
CPU, so neither CPU time nor the fastest of several rounds removes it.
``HostClock.calibrate`` times a fixed loop of builtin-only interpreter work;
``tick`` runs it every ``INTERVAL_S`` of benchmark time, between classes, and
the clock stops while it runs, so calibration never counts as work. A
duration measured at time t is multiplied by ``REFERENCE_S`` over the
calibration interpolated at t. Repeated timings of identical surfcoh work
spread by 0.3-0.7 of their median unscaled and by 0.06-0.1 scaled. A
change to surfcoh leaves the calibration loop alone, so it shows in full.
"""

from __future__ import annotations

import bisect
import time

_perf = time.perf_counter

# The calibration loop's time on an idle 2-vCPU Intel Xeon under Python 3.11.
REFERENCE_S = 0.0015
INTERVAL_S = 0.25


def _loop() -> float:
    """Seconds for a fixed loop of builtin-only work, the fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = _perf()
        table: dict = {}
        total = 0
        for i in range(1500):
            t = (i, i * 3, i & 7, i % 5)
            total += sum(a * b for a, b in zip(t, t[1:])) // (i % 7 + 1)
            table[t[2:]] = table.get(t[2:], 0) + total
        best = min(best, _perf() - start)
    return best


class HostClock:
    """perf_counter minus the time spent calibrating, plus the calibrations."""

    def __init__(self) -> None:
        self._paused = 0.0
        self._next = 0.0
        self.times: list[float] = []  # clock readings at each calibration
        self.calibrations: list[float] = []  # the loop's seconds at each

    def now(self) -> float:
        return _perf() - self._paused

    def calibrate(self) -> None:
        start = _perf()
        seconds = _loop()
        self.times.append(start - self._paused)
        self.calibrations.append(seconds)
        self._paused += _perf() - start
        self._next = self.now() + INTERVAL_S

    def tick(self) -> None:
        """Calibrate if ``INTERVAL_S`` has passed since the last calibration."""
        if self.now() >= self._next:
            self.calibrate()

    def scale(self, t: float) -> float:
        """REFERENCE_S over the calibration linearly interpolated at time t."""
        times, values = self.times, self.calibrations
        i = bisect.bisect_left(times, t)
        if i == 0:
            return REFERENCE_S / values[0]
        if i == len(times):
            return REFERENCE_S / values[-1]
        t0, t1 = times[i - 1], times[i]
        w = (t - t0) / (t1 - t0)
        return REFERENCE_S / (values[i - 1] * (1 - w) + values[i] * w)

    def scaled(self, start: float, end: float) -> float:
        """The duration from start to end at reference speed."""
        return (end - start) * self.scale((start + end) / 2)
