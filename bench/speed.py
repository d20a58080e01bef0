"""The machine's speed at the moment, from a fixed pure-Python loop.

On a shared machine a single-threaded loop runs at speeds up to about 2x
apart, switching every few seconds and drifting over minutes, so no wall
time of a run can be compared with another run's within a 25% bound.  The
gated times therefore divide each measured time by the time spin() took
beside it and multiply by REF_S, spin()'s time at the faster speed of the
machine the benchmark was built on: they read as times at that speed.  A
change to the package moves them; a change of machine speed does not.

spin() does what the package's hot paths do: Python integer arithmetic
with saturation, function calls, and Fraction arithmetic.
"""

from __future__ import annotations

import os
import statistics
from fractions import Fraction
from time import perf_counter

# spin() on the faster of the two speeds of an Intel Xeon 2-vCPU guest
# under Python 3.11.
REF_S = 0.245e-3
RECENT = 5        # spin() samples in a running speed estimate
EVERY_S = 0.01    # least time between samples while measuring


def _saturate(v: int, lo: int = -(1 << 31), hi: int = (1 << 31) - 1) -> int:
    return lo if v < lo else hi if v > hi else v


def spin(n: int = 600):
    acc, f = 0, Fraction(1, 3)
    for i in range(n):
        acc = _saturate(acc + ((acc * 3 + i) >> 2))
        if i % 50 == 0:
            f = f * Fraction(i + 1, 7) - Fraction(1, i + 2)
    return acc, f


class SpeedProbe:
    """spin() times taken while measuring, and the scale they imply."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            spin()
            self.last = perf_counter()
            self.samples.append(self.last - t0)

    def sample_if_due(self) -> None:
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """REF_S over the median of the last RECENT samples: a time measured
        now, multiplied by this, reads as a time at REF_S's speed."""
        return REF_S / statistics.median(self.samples[-RECENT:])


def pin_to_one_cpu():
    """Keep this process, its children and so its speed probe on one CPU.

    The CPUs of a shared machine can run at different speeds at the same
    moment; a process that migrates between them, or a child that starts
    on the other one, would be timed at a speed the probe did not see.
    Returns the CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
