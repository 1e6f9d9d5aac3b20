"""Machine-speed calibration: express every timed call at one reference speed.

The benchmark runs on shared hosts whose speed switches between levels that
differ by up to 2x, from one second to the next and for minutes at a time,
because other tenants share the cores and caches.  A raw wall time then says
more about the neighbours than about the program.  So while a workload runs,
a fixed kernel of pure-Python exact arithmetic is timed every
``INTERVAL_S`` seconds, between the timed calls.  The kernel shares no code
with corrforms, so no change to the program can change it; it does the same
kind of work (``fractions.Fraction`` polynomial products and remainders, and
boxed small-integer arithmetic mod p), so the host's slow spells slow it
about as much as they slow the program.

A call of ``seconds`` wall time, made while the kernel took ``k`` seconds
(the mean of the kernel samples just before and just after the call), counts
as ``seconds * REFERENCE_S / k``: its time on a machine on which the kernel
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import random
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.2  # kernel samples at least this far apart
# Kernel time on the development machine (2-vCPU Intel Xeon VM, Python 3.11.7)
# at the slower of its two speed levels, where it spent most of its time; the
# kernel took 2.8-3.6 ms at the faster one.  It only fixes the scale:
# reference-speed times read like wall times on that machine at that level.
REFERENCE_S = 0.0053
P = 997

_rng = random.Random("calibration")
_QA = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(16)]
_QB = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(16)]
_FA = [_rng.randrange(P) for _ in range(60)]
_FB = [_rng.randrange(P) for _ in range(60)]


class _Box:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % P


def _q_kernel():
    prod = [Fraction(0)] * (len(_QA) + len(_QB) - 1)
    for i, x in enumerate(_QA):
        for j, y in enumerate(_QB):
            prod[i + j] += x * y
    divisor = _QA[:9]
    while len(prod) >= len(divisor):
        c = prod[-1] / divisor[-1]
        k = len(prod) - len(divisor)
        for i, y in enumerate(divisor):
            prod[i + k] -= c * y
        prod.pop()


def _f_kernel():
    a = [_Box(x) for x in _FA]
    b = [_Box(x) for x in _FB]
    out = [_Box(0) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _Box(out[i + j].v + x.v * y.v)


def kernel_seconds():
    """Best of two timings of the kernel."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _q_kernel()
        _f_kernel()
        best = min(best, perf_counter() - t0)
    return best


class Calibration:
    """Kernel samples taken through a run, and the reference-speed time of a call."""

    def __init__(self):
        self.times = []
        self.kernel = []
        self.sample()

    def sample(self):
        self.kernel.append(kernel_seconds())
        self.times.append(perf_counter())

    def tick(self):
        """Take a sample if the last one is INTERVAL_S old; call between timed calls."""
        if perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def reference_seconds(self, start, seconds):
        """A call that started at `start` and took `seconds`, at the reference speed."""
        i = bisect.bisect_right(self.times, start)
        around = self.kernel[max(i - 1, 0) : i + 1]
        return seconds * REFERENCE_S / (sum(around) / len(around))
