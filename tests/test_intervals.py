"""Certified interval enclosures: containment and comparison guarantees."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surdlab.intervals import Interval, sqrt_interval

F = Fraction


def test_sqrt_interval_contains_root():
    iv = sqrt_interval(2, 64)
    assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
    assert iv.width == F(1, 2**64)


def test_sqrt_interval_exact_on_squares():
    iv = sqrt_interval(49, 16)
    assert iv.lo == 7
    assert iv.hi == 7 + F(1, 2**16)


def test_sqrt_interval_rational_radicand():
    x = F(9, 4)
    iv = sqrt_interval(x, 32)
    assert iv.lo <= F(3, 2) <= iv.hi


def test_sqrt_interval_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_interval(-1, 8)


def test_interval_arithmetic():
    a = Interval(F(1), F(2))
    b = Interval(F(3), F(4))
    assert (a + b) == Interval(F(4), F(6))
    assert (b - a) == Interval(F(1), F(3))
    assert abs(Interval(F(-3), F(-1))) == Interval(F(1), F(3))
    assert abs(Interval(F(-1), F(2))) == Interval(F(0), F(2))
    assert a.scale(F(-2)) == Interval(F(-4), F(-2))
    assert (b / a) == Interval(F(3, 2), F(4))


def test_interval_division_guards():
    with pytest.raises(ValueError):
        Interval(F(1), F(2)) / Interval(F(0), F(1))
    with pytest.raises(ValueError):
        Interval(F(-1), F(2)) / Interval(F(1), F(2))


def test_comparisons():
    iv = sqrt_interval(2, 64)
    assert iv.certainly_below(F(3, 2))
    assert iv.certainly_above(F(7, 5))


@given(
    st.fractions(min_value=0, max_value=1000, max_denominator=50),
    st.integers(min_value=4, max_value=128),
)
def test_sqrt_interval_containment_property(x, bits):
    iv = sqrt_interval(x, bits)
    assert iv.lo >= 0
    assert iv.lo * iv.lo <= x
    assert iv.hi * iv.hi >= x
    assert iv.width == F(1, x.denominator << bits)
