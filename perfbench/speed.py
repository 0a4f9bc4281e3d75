"""Machine-speed calibration of the benchmark's timings.

On a small shared host (2 vCPUs of an Intel Xeon, Python 3.11) the speed of
one CPU moves by up to half, for the program under test and for any other
Python code alike: a fixed loop of stdlib ``Fraction`` arithmetic took 13 ms
at one moment and 21 ms at the next, with its process time equal to its wall
time, and such a phase can last from a second to several minutes.  A longer
run does not average it out: over windows of 10 to 60 s, the medians of that
loop spread by 25 to 28 % of their median (quartile distance), more than any
bound a benchmark of the program could keep.

So the benchmark runs a short calibration loop, stdlib ``Fraction``
arithmetic like the program's own, in bursts between ops at least every
``EVERY_S``, and scales each op's wall time by ``REF_S`` divided by the
median calibration time around that op.  A scaled time reads as the wall
time on a machine where the calibration loop takes ``REF_S``, its median
over several minutes on that host: it moves with the work the program does
and not with the machine's speed of the moment.  On recorded runs of the
cohesion ops, the medians of 20 s windows spread by 33 % unscaled and by
2 % scaled.

The loop uses only the standard library, so no change to the program can
change its cost; a change that made the whole machine slower, by leaving
work running between ops, would be scaled away in part.  Unscaled figures
are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_S = 1.8e-3  # calibration time that scaled times refer to (see above)
EVERY_S = 0.2  # longest gap between two calibration bursts while ops run
BURST = 3  # calibration loops per burst, each one sample
WINDOW_S = 0.3  # samples this close to an op's start or end set its scale


def calibration_loop() -> Fraction:
    """Fixed work: a harmonic partial sum in exact rationals."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


class Speedometer:
    """Calibration samples of one run, by the time each one ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        """Run one burst of calibration loops."""
        for _ in range(BURST):
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            self.ends.append(t1)
            self.durations.append(t1 - t0)

    def due(self) -> bool:
        return not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time in [start, end] to time at the reference
        speed: REF_S over the median of the samples that ended within
        WINDOW_S of the interval, or of the nearest sample when none did."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            window = [self.durations[min(lo, len(self.durations) - 1)]]
        return REF_S / statistics.median(window)

    def summary(self) -> dict:
        d = self.durations
        quartiles = statistics.quantiles(d, n=4) if len(d) > 1 else [d[0]] * 3
        return {"samples": len(d), "ref_s": REF_S, "median_s": statistics.median(d),
                "q1_s": quartiles[0], "q3_s": quartiles[2]}
