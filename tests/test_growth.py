"""Pell scans, minimal-solution growth, denominators, quotient profiles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surdlab.forms import normalize, parse_form
from surdlab.growth import (
    PellQuery,
    bounded_pell_solutions,
    denominator_growth,
    least_squares_slope,
    min_solution_growth,
    partial_quotient_profile,
)
from surdlab.surd import SquareInputError, is_perfect_square

from oracles import brute_force_pell

F = Fraction
TITLE = parse_form("2*4^n + 1")


def _tuples(solutions):
    return [(s.X, s.Y, s.value) for s in solutions]


def test_scan_d33_c2():
    scan = bounded_pell_solutions(PellQuery(33, 2, y_limit=10))
    assert _tuples(scan.solutions) == [(23, 4, 1)]
    assert scan.complete


def test_scan_d33_c4():
    scan = bounded_pell_solutions(PellQuery(33, 4, y_limit=10))
    assert _tuples(scan.solutions) == [(6, 1, 3), (23, 4, 1)]
    assert scan.complete


def test_scan_d2_c2():
    scan = bounded_pell_solutions(PellQuery(2, 2, y_limit=5))
    assert _tuples(scan.solutions) == [(1, 1, -1), (3, 2, 1), (7, 5, -1)]
    assert not scan.complete  # C = 2 exceeds sqrt(2): flagged, still correct here


def test_scan_incompleteness_flag():
    assert not bounded_pell_solutions(PellQuery(33, 6, y_limit=5)).complete
    assert bounded_pell_solutions(PellQuery(33, 5, y_limit=5)).complete


def test_scan_emits_non_coprime_multiples():
    # (10, 2) = 2*(5, 1) has value -4 with |−4| < 5 <= sqrt(26).
    scan = bounded_pell_solutions(PellQuery(26, 5, y_limit=25))
    assert _tuples(scan.solutions) == [
        (5, 1, -1),
        (10, 2, -4),
        (51, 10, 1),
        (102, 20, 4),
    ]


def test_scan_rejects_bad_queries():
    with pytest.raises(ValueError):
        PellQuery(33, 0)
    with pytest.raises(ValueError):
        PellQuery(33, 2, y_limit=0)
    with pytest.raises(SquareInputError):
        bounded_pell_solutions(PellQuery(36, 2, y_limit=5))


def test_scan_matches_brute_force_small():
    for D in range(2, 101):
        if is_perfect_square(D):
            continue
        c_max = math.isqrt(D)
        oracle_all = brute_force_pell(D, c_max, 60)
        for C in {1, 2, c_max}:
            if C * C > D:
                continue  # completeness is only promised for C <= sqrt(D)
            got = bounded_pell_solutions(PellQuery(D, C, y_limit=60)).solutions
            expected = [s for s in oracle_all if abs(s.value) < C]
            assert sorted(_tuples(got)) == sorted(_tuples(expected)), (D, C)


def test_min_solution_growth_title_family():
    result = min_solution_growth(TITLE, 2, range(1, 7))
    assert (1, "square") in result.skipped  # f(1) = 9
    by_n = {rec.n: rec for rec in result.records}
    assert by_n[2].metadata["Y"] == 4  # from D = 33
    assert by_n[2].metadata["D"] == 33
    assert result.slope is not None and result.slope > 0
    assert result.hypothesis is not None and result.hypothesis.holds


def test_min_solution_growth_flat_for_trivial_family():
    result = min_solution_growth(parse_form("4^n + 1"), 2, range(1, 11))
    assert all(rec.metadata["Y"] == 1 for rec in result.records)
    assert all(rec.metadata["X"] == 2**rec.n for rec in result.records)
    assert result.slope == 0.0
    assert result.hypothesis is not None and not result.hypothesis.holds


def test_min_solution_growth_respects_caps():
    result = min_solution_growth(TITLE, 2, range(8, 9), y_limit=10)
    assert result.records == ()
    assert (8, "cap") in result.skipped


def test_least_squares_slope():
    assert least_squares_slope([(1, 1.0), (2, 2.0), (3, 3.0)]) == pytest.approx(1.0)
    assert least_squares_slope([(1, 1.0)]) is None


def test_denominator_growth_3n_plus_1():
    records = denominator_growth(parse_form("3^n + 1"), 2, range(1, 13))
    by_n = {rec.n: rec for rec in records}
    assert by_n[4].metadata["denominator"] == 8
    assert by_n[1].metadata["denominator"] == 1
    for n in range(2, 13):
        expected = 2 ** (n - 2) if n % 2 else 2 ** (n - 1)
        assert by_n[n].metadata["denominator"] == expected
    # Exact flag: denominator^2 < 2^n, i.e. denominator < exp(n ln2 / 2).
    assert sorted(rec.n for rec in records if rec.flagged) == [1, 3]


def test_denominator_growth_divisible_roots():
    records = denominator_growth(parse_form("2*4^n"), 2, range(1, 9))
    assert all(rec.metadata["denominator"] == 1 for rec in records)
    assert all(rec.flagged for rec in records)  # allowed: 2 divides the root


def test_denominator_growth_validates_input():
    with pytest.raises(ValueError, match="invalid b"):
        denominator_growth(parse_form("3^n + 1"), 1, range(1, 3))
    with pytest.raises(ValueError, match="integer coefficients"):
        denominator_growth(normalize([(F(1, 2), 3)]), 2, range(1, 3))


def test_partial_quotient_profile_title():
    prof = partial_quotient_profile(TITLE, 3, 10.0)  # D = 129
    assert prof.D == 129
    assert prof.max_partial_quotient == 22  # 2*a0, inside the first period
    prof = partial_quotient_profile(TITLE, 2, 10.0)  # D = 33
    assert prof.max_partial_quotient == 10


def test_partial_quotient_profile_h_squared_plus_one():
    prof = partial_quotient_profile(parse_form("4^n + 1"), 3, 10.0)  # D = 65
    assert prof.max_partial_quotient == 16


def test_partial_quotient_profile_skips_squares():
    assert partial_quotient_profile(TITLE, 1, 2.0) is None  # f(1) = 9


def test_partial_quotient_profile_exponents_near_two():
    prof = partial_quotient_profile(TITLE, 4, 8.0)
    assert prof.effective_exponents
    assert all(1.5 < e < 5 for e in prof.effective_exponents)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=6))
def test_scan_brute_force_property(D, C):
    if is_perfect_square(D) or C * C > D:
        return
    got = bounded_pell_solutions(PellQuery(D, C, y_limit=50)).solutions
    expected = brute_force_pell(D, C, 50)
    assert sorted(_tuples(got)) == sorted(_tuples(expected))
