"""Machine-speed correction for a shared, noisy box.

On the 2-core machine the benchmark was set up on, the speed of the same code
drifts by 20-30% over spans of 5-60 s, with CPU time tracking wall time
(slower execution, not descheduling).  A 30 s run then lands anywhere in that
range, so raw end-to-end times spread by 15-25% from run to run.

A fixed calibration loop runs between items about ten times a second.  It
is a small mix of what egtan executes: interpreted integer arithmetic,
``Fraction`` arithmetic and small numpy calls.  Across fast and slow spells
its time changes somewhat more than the items' (about 1.5x against
1.3-1.4x), so it over-corrects slightly; of the loops tried (integer only,
``Fraction`` only, numpy only, this mix) it gave the smallest run-to-run
spreads over all three workloads.  Each timed interval is scaled by
``CAL_REF_S`` over the median calibration time within ``CAL_WINDOW_S`` of it.
Times are therefore reported as they would read on a machine where the loop
takes ``CAL_REF_S``.  The loop runs no egtan code, so a change to egtan moves
the scaled times exactly as it moves the raw ones.  Raw figures and the
measured calibration times are printed on the summary line.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

CAL_REF_S = 2.8e-3  # typical median of the loop on the machine the bounds were set on
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 1.5


def calibration_work():
    s = 0
    for i in range(8000):
        s += i * i % 7
    for i in range(150):
        s += (Fraction(i + 1, i + 2) * Fraction(2, i + 3) + Fraction(1, 7)).denominator
    a = np.arange(8.0)
    for _ in range(150):
        a = np.clip(a - 0.1 * a, 0.0, 5.0)
    return s, a


class SpeedProbe:
    """Calibration samples along a run: ``(mid time, seconds)``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_work()
        t1 = perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= CAL_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a raw interval ``[t0, t1]`` into reference-speed time."""
        near = [d for t, d in self.samples if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (t0 + t1) / 2))[1]]
        return CAL_REF_S / statistics.median(near)

    def median(self) -> float:
        return statistics.median(d for _, d in self.samples)
