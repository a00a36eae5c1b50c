"""Host speed, measured between calls, so call times can be scaled to it.

On a shared host the same pure-Python loop can take 1.6 times as long for
tens of seconds at a time, which would swamp any change in the library.  The
benchmark therefore times a fixed slice of its own exact arithmetic (dicts of
``Fraction`` coefficients, like the library's kernel, but none of its code)
between calls, and scales each call by ``REFERENCE_SLICE_S / slice``, with the
slices taken just before and just after it.  A scaled time reads as the time
the call would take on a host that runs the slice in ``REFERENCE_SLICE_S``.
"""

import time
from fractions import Fraction

import exact

# A dense ternary cubic; one slice multiplies out its cube SLICE_REPS times.
_CUBIC = {(i, j, 3 - i - j): Fraction(i + 2 * j + 1, j + 3)
          for i in range(4) for j in range(4 - i)}
SLICE_REPS = 10

# The slice's time on the 2-vCPU VM the bounds were tuned on, when it ran
# fastest (measured slices there took 13 to 26 ms).
REFERENCE_SLICE_S = 0.015

# Least time between two slices; with it the slices cost about 6% of a run.
INTERVAL_S = 0.25


def slice_seconds():
    start = time.perf_counter()
    for _ in range(SLICE_REPS):
        exact.mul(exact.mul(_CUBIC, _CUBIC), _CUBIC)
    return time.perf_counter() - start


def scale(before, after):
    """Factor from a time measured between two slices to reference time."""
    return 2 * REFERENCE_SLICE_S / (before + after)


class Track:
    """Slices taken between the calls of one run.

    Call ``after_call`` once after every timed call and ``finish`` after the
    last; ``factors`` then holds one scale factor per call.
    """

    def __init__(self):
        self.marks = []   # (calls made before the slice, slice seconds)
        self.calls = 0
        self._due = 0.0
        self._mark()

    def _mark(self):
        self.marks.append((self.calls, slice_seconds()))
        self._due = time.perf_counter() + INTERVAL_S

    def after_call(self):
        self.calls += 1
        if time.perf_counter() >= self._due:
            self._mark()

    def finish(self):
        if self.marks[-1][0] != self.calls:
            self._mark()

    def factors(self):
        out = []
        for (n0, s0), (n1, s1) in zip(self.marks, self.marks[1:]):
            out += [scale(s0, s1)] * (n1 - n0)
        return out

    def slowdown(self):
        """Median slice time over the reference: how slow the host ran."""
        slices = sorted(s for _, s in self.marks)
        return slices[len(slices) // 2] / REFERENCE_SLICE_S
