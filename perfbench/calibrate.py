"""A fixed reference kernel that tracks the speed of a shared machine.

The reference machine is a VM whose CPU speed drifts by 20 % and more within
seconds as its neighbours load the host.  The drift moves the timings of
work done close together in time together, so the measuring process runs
this short kernel at least every ``EVERY_S`` seconds and scales each time it
measures by ``NOMINAL_S / kernel time`` of the kernel run just before it: a
time is reported in seconds at the machine's nominal speed.  The kernel
mixes the three kinds of work surdlab does (small-integer surd steps,
growing big integers, ``Fraction`` arithmetic) and shares no code with it,
so a change to surdlab cannot move the kernel.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

NOMINAL_S = 0.005  # kernel time on the reference machine when it is quiet
EVERY_S = 0.1


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    D = 2 * 4**15 + 1  # period 9886, word-size
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        if d == 1:
            break
    p, q = 1, 0
    for a in range(1, 2500):
        p, q = a * p + q, p
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i)
    return time.perf_counter() - t0
