"""Scaling measured times to a fixed reference speed.

On the reference machine (2 vCPUs, CPython 3.11.7) each vCPU switches, every
few milliseconds, between speeds up to about 2x apart, and the share of slow
time drifts over minutes: raw pass times of the same code spread by 40%
between runs, and no pass is short enough to run at one speed throughout.
A ``Sampler`` interrupts the process every ``PERIOD_S`` (SIGALRM) and times a
short fixed ``Fraction`` loop; the loop's time over ``REF_S`` is the
machine's slowdown at that moment.  ``scaled`` divides the work time of an
interval (its wall time minus the sampler's own) by the mean slowdown sampled
in it: the time the interval would take with the loop at ``REF_S``.

Scaling assumes the program slows down as much as the loop does.  It hides
no change to the program: the loop is the benchmark's own code, so only the
machine's speed moves it.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.005
# The loop's time in the fast state of the reference machine.  A constant, so
# that a run spent wholly in the slow state still scales to the same figure.
REF_S = 150e-6
LOOP_STEPS = 25


def _loop() -> None:
    x = Fraction(1, 3)
    for i in range(1, LOOP_STEPS):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2


class Sampler:
    """Speed samples taken while the ``with`` block runs."""

    def __init__(self) -> None:
        self.at = array("d")
        self.dur = array("d")
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample
            return
        self._busy = True
        t = perf_counter()
        _loop()
        self.dur.append(perf_counter() - t)
        self.at.append(t)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that the interval [t0, t1) of ``perf_counter`` would take
        at reference speed."""
        i, j = bisect_left(self.at, t0), bisect_left(self.at, t1)
        durs = self.dur[i:j]
        if not durs:
            raise ValueError("interval holds no speed sample")
        work = t1 - t0 - sum(durs)
        return work * sum(REF_S / d for d in durs) / len(durs)

    def slowdown(self) -> float:
        """Mean sampled slowdown against ``REF_S`` over the whole block."""
        return sum(self.dur) / len(self.dur) / REF_S
