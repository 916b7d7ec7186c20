"""Certified interval arithmetic over exact rational endpoints.

Every enclosure here is derived from integer square roots, so an interval
``[lo, hi]`` really does contain its target; comparisons between
intervals certify inequalities without trusting floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval | Fraction | int") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other: "Interval | Fraction | int") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return Interval(self.lo - other, self.hi - other)

    def __rsub__(self, other: "Fraction | int") -> "Interval":
        return Interval(other - self.hi, other - self.lo)

    def scale(self, c: Fraction) -> "Interval":
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def __truediv__(self, other: "Interval") -> "Interval":
        # Only the positive/positive case is needed here.
        if other.lo <= 0:
            raise ValueError("division requires a strictly positive divisor")
        if self.lo < 0:
            raise ValueError("division requires a non-negative dividend")
        return Interval(self.lo / other.hi, self.hi / other.lo)

    def certainly_below(self, bound: Fraction) -> bool:
        return self.hi < bound

    def certainly_above(self, bound: Fraction) -> bool:
        return self.lo > bound


def sqrt_interval(x: Fraction | int, bits: int) -> Interval:
    """Enclosure of ``sqrt(x)`` with width ``1/(den(x) * 2**bits)``.

    Uses ``sqrt(p/q) = isqrt(p*q*4**bits) / (q*2**bits)`` up or down, so
    the endpoints are exact and the bound is unconditional.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    s = math.isqrt((p * q) << (2 * bits))
    den = q << bits
    return Interval(Fraction(s, den), Fraction(s + 1, den))

