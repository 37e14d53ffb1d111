"""Correction of wall times for contention on a shared host.

On a host shared with other tenants, the same work can take 30% longer
for minutes at a time, and CPU time grows with wall time, so neither
measures the program alone. `Sampler` runs a fixed reference loop, pure
Python `Fraction` arithmetic like the group core, from a SIGALRM handler
every `interval` seconds of wall time. The samples run in the thread being
measured, on its core and under the contention it sees.

`adjusted(wall, samples)` is the time the span would take at the
reference loop's uncontended speed: the wall time minus the time spent in
samples, scaled by `REF_NOMINAL_S` over the trimmed mean of the samples.
The correction assumes the measured work runs on one thread, as the
kummerlab CLI does with `KUMMERLAB_THREADS` unset.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_TERMS = 500
# About the fastest duration of one `reference()` call seen on a 2-core
# Intel Xeon (KVM) VM with CPython 3.11; adjusted times are in seconds at
# that speed.
REF_NOMINAL_S = 1.0e-3
TRIM = 0.2  # share of samples cut from each end before taking the mean


def reference() -> Fraction:
    total = Fraction(0)
    for i in range(REF_TERMS):
        total += Fraction(i, 16)
    return total


def adjusted(wall: float, samples: list[float]) -> float:
    """Wall time of a span corrected for contention; `wall` when there are no samples."""
    if not samples:
        return wall
    s = sorted(samples)
    k = int(len(s) * TRIM)
    speed = statistics.fmean(s[k:len(s) - k])
    return (wall - sum(s)) * REF_NOMINAL_S / speed


class Sampler:
    """Within `with`, time `reference()` every `interval` seconds of wall time."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        # A collection of the program's garbage would land in the sample;
        # it is put off until the program's next allocation instead.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> Sampler:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
