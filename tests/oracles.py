"""Independent oracles shared by the test modules."""

from __future__ import annotations

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
