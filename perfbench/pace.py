"""Paced timing: solve and set-up times corrected for the host's speed.

A shared host does not run at one speed.  On the 2-core x86_64 host this
benchmark was tuned on, a fixed numpy/Python loop ran in one of two states,
a fast one and one about 1.6x slower, switching within a second and spending
anywhere from none to nearly all of a minute in the slow state.  The same
acceptance-scale solve took from 5.2 s to 10.8 s, and the median over a
55 s run moved by a fifth between runs.

Paced timing divides that speed out.  A short reference kernel, a fixed mix
of small numpy calls and Python overhead like one APG step, is timed before
the solve, after it, and every ``SEGMENT_GRADS`` calls into the instance's
gradient (about every 10 ms).  Each stretch of the solve between two kernel
timings is scaled by ``REFERENCE_S`` over the mean of those two timings, and
the paced time is the sum.  Kernel time itself is left out.  On that host the
paced time of a solve varied by 2.6% (coefficient of variation) where its wall
time varied by 14%.
"""

from __future__ import annotations

import time

import numpy as np

# Calls into the instance's gradient callable between two reference timings.
SEGMENT_GRADS = 100

# Seconds the reference kernel takes in the host's fast state (about 150 us
# on the host above).  Paced seconds are seconds at that speed; the constant
# only sets the scale and cancels in every comparison.
REFERENCE_S = 1.5e-4

_RNG = np.random.Generator(np.random.Philox(key=[0, 11]))
_MATRIX = _RNG.normal(size=(200, 200)) / 15.0
_VECTOR = _RNG.normal(size=200)


def reference_kernel() -> np.ndarray:
    v = _VECTOR
    for _ in range(10):
        v = _MATRIX @ v
        v = v / np.linalg.norm(v)
        v = np.clip(v, -0.5, 0.5)
    return v


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def paced(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` measured between two reference timings, at reference speed."""
    return seconds * 2.0 * REFERENCE_S / (ref_before + ref_after)


class PaceClock:
    """Reference timings taken around and inside one timed call.

    ``mark`` runs the reference kernel and records when it started and ended;
    call it once before the timed interval, from inside it as often as
    wanted, and once after.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def mark(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.marks.append((start, time.perf_counter()))

    def paced_between(self, t0: float, t1: float) -> float:
        """Paced seconds of the interval [t0, t1], which lies between the
        first and the last mark; the kernels run inside it are left out."""
        inner = self.marks[1:-1]
        starts = [a for a, _ in inner] + [t1]
        ends = [t0] + [b for _, b in inner]
        refs = [b - a for a, b in self.marks]
        spans = [s - e for s, e in zip(starts, ends)]
        return sum(paced(span, refs[k], refs[k + 1]) for k, span in enumerate(spans))
