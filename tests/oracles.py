"""Independent oracles shared by the test modules."""

from __future__ import annotations

import math

from surdlab.surd import PellSolution, isqrt


def brute_force_pell(D: int, C: int, y_limit: int) -> list[PellSolution]:
    """Direct enumeration of |X**2 - D*Y**2| < C over 1 <= Y <= y_limit."""
    out = []
    for Y in range(1, y_limit + 1):
        target = D * Y * Y
        lo = isqrt(max(target - C, 0))
        hi = isqrt(target + C) + 1
        for X in range(max(lo, 1), hi + 1):
            v = X * X - target
            if abs(v) < C:
                out.append(PellSolution(X, Y, v))
    out.sort(key=lambda s: (s.Y, s.X))
    return out


def plain_period_word(D: int) -> list[int]:
    """Period word a_1..a_r of sqrt(D), independent of surdlab.

    Walks the whole period with the classical step
    Q_{k+1} = (D - P_{k+1}**2) / Q_k and stops at the first Q == 1, so it
    shares neither its step nor its stop rule with the midpoint walk.
    """
    a0 = math.isqrt(D)
    P, Q, a = 0, 1, a0
    word = []
    while True:
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q
        word.append(a)
        if Q == 1:
            return word
