"""Pell scans, minimal-solution growth, denominators, quotient profiles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surdlab import surd
from surdlab.forms import normalize, parse_form
from surdlab.growth import (
    bounded_pell_solutions,
    denominator_growth,
    least_squares_slope,
    min_solution_growth,
    partial_quotient_profile,
)
from surdlab.surd import (
    DEFAULT_DIGIT_BUDGET,
    SquareInputError,
    _digit_budget_bits,
    _least_convergent_below,
)

from oracles import brute_force_pell, is_perfect_square, plain_min_solution

F = Fraction
TITLE = parse_form("2*4^n + 1")


def _tuples(solutions):
    return [(s.X, s.Y, s.value) for s in solutions]


def test_scan_d33_c2():
    scan = bounded_pell_solutions(33, 2, y_limit=10)
    assert _tuples(scan.solutions) == [(23, 4, 1)]
    assert scan.complete


def test_scan_d33_c4():
    scan = bounded_pell_solutions(33, 4, y_limit=10)
    assert _tuples(scan.solutions) == [(6, 1, 3), (23, 4, 1)]
    assert scan.complete


def test_scan_d2_c2():
    scan = bounded_pell_solutions(2, 2, y_limit=5)
    assert _tuples(scan.solutions) == [(1, 1, -1), (3, 2, 1), (7, 5, -1)]
    assert not scan.complete  # C = 2 exceeds sqrt(2): flagged, still correct here


def test_scan_incompleteness_flag():
    assert not bounded_pell_solutions(33, 6, y_limit=5).complete
    assert bounded_pell_solutions(33, 5, y_limit=5).complete


def test_scan_emits_non_coprime_multiples():
    # (10, 2) = 2*(5, 1) has value -4 with |−4| < 5 <= sqrt(26).
    scan = bounded_pell_solutions(26, 5, y_limit=25)
    assert _tuples(scan.solutions) == [
        (5, 1, -1),
        (10, 2, -4),
        (51, 10, 1),
        (102, 20, 4),
    ]


def test_scan_rejects_bad_queries():
    with pytest.raises(ValueError):
        bounded_pell_solutions(33, 0, y_limit=10)
    with pytest.raises(ValueError):
        bounded_pell_solutions(33, 2, y_limit=0)
    with pytest.raises(SquareInputError):
        bounded_pell_solutions(36, 2, y_limit=5)


def test_scan_matches_brute_force_small():
    for D in range(2, 101):
        if is_perfect_square(D):
            continue
        c_max = math.isqrt(D)
        oracle_all = brute_force_pell(D, c_max, 60)
        for C in {1, 2, c_max}:
            if C * C > D:
                continue  # completeness is only promised for C <= sqrt(D)
            got = bounded_pell_solutions(D, C, y_limit=60).solutions
            expected = [s for s in oracle_all if abs(s.value) < C]
            assert sorted(_tuples(got)) == sorted(_tuples(expected)), (D, C)


@pytest.mark.parametrize("D, C", [(62, 3), (593, 24), (1022, 17), (1023, 5), (4095, 2)])
def test_scan_cut_by_digit_budget_matches_brute_force(D, C):
    # A 2-digit budget allows Y < 2**7, far below y_limit.  Each D has a
    # solution at Y = 127 or at Y = 128 (1022 and 1023 through a multiple
    # g*(p, q) with g > 1), so a cut one off either way changes the result.
    assert C * C <= D and _digit_budget_bits(2) == 7
    scan = bounded_pell_solutions(D, C, y_limit=10**12, digit_budget=2)
    assert scan.complete
    assert sorted(_tuples(scan.solutions)) == sorted(_tuples(brute_force_pell(D, C, 127)))
    assert {s.Y for s in brute_force_pell(D, C, 128)} & {127, 128}


def test_min_solution_growth_title_family():
    result = min_solution_growth(TITLE, 2, range(1, 7))
    assert (1, "square") in result.skipped  # f(1) = 9
    by_n = {rec.n: rec for rec in result.records}
    assert by_n[2].Y == 4  # from D = 33
    assert by_n[2].D == 33
    assert result.slope is not None and result.slope > 0
    assert result.hypothesis is not None and result.hypothesis.holds


def test_min_solution_growth_flat_for_trivial_family():
    result = min_solution_growth(parse_form("4^n + 1"), 2, range(1, 11))
    assert all(rec.Y == 1 for rec in result.records)
    assert all(rec.X == 2**rec.n for rec in result.records)
    assert result.slope == 0.0
    assert result.hypothesis is not None and not result.hypothesis.holds


def test_min_solution_growth_respects_caps():
    result = min_solution_growth(TITLE, 2, range(8, 9), y_limit=10)
    assert result.records == ()
    assert (8, "cap") in result.skipped


def test_min_solution_growth_rejects_bad_boxes():
    for C in (0, -3):
        with pytest.raises(ValueError, match="C must be a positive integer"):
            min_solution_growth(TITLE, C, range(3, 4))
    with pytest.raises(ValueError, match="y_limit must be positive"):
        min_solution_growth(TITLE, 2, range(3, 4), y_limit=0)


def test_min_solution_growth_refuses_negative_n():
    # Not a "non-integer" skip: f(-1) is not defined, as in every family command.
    with pytest.raises(ValueError, match="evaluation at negative n is not defined"):
        min_solution_growth(TITLE, 2, range(-1, 3))


def test_min_solution_growth_c1_is_cap_without_walking(monkeypatch):
    # |X^2 - D*Y^2| < 1 has no solution for non-square D.
    def no_walk(*args, **kwargs):
        raise AssertionError("C = 1 must not walk")

    monkeypatch.setattr(surd, "_midpoint_walk", no_walk)
    result = min_solution_growth(TITLE, 1, range(1, 40))
    assert result.records == ()
    assert result.skipped == ((1, "square"),) + tuple((n, "cap") for n in range(2, 40))


def _y_max(y_limit, bits_cap):
    """The one bound min_solution_growth applies: Y <= y_limit and
    Y.bit_length() <= bits_cap."""
    y_max = (1 << bits_cap) - 1
    return y_max if y_limit is None else min(y_max, y_limit)


# (C, y_limit, bits cap) with one representative per distinct y_max: the
# per-step oracle stops at the first q over y_max, so the others repeat it.
# C = 1 walks the oracle to the cap, so it gets the small caps only.
_ORACLE_BOXES = list({
    (C, _y_max(y_limit, bits)): (C, y_limit, bits)
    for C in (1, 2, 3, 5, 17)
    for bits in ((3, 10) if C == 1 else (3, 10, 64, 2000))
    for y_limit in (None, 10, 10**6)
}.values())


def test_least_convergent_matches_per_step_oracle_below_20000():
    for D in range(2, 20000):
        if is_perfect_square(D):
            continue
        for C, y_limit, bits in _ORACLE_BOXES:
            got = _least_convergent_below(D, math.isqrt(D), C, _y_max(y_limit, bits))
            assert got == plain_min_solution(D, C, y_limit, bits), (D, C, y_limit, bits)


@pytest.mark.parametrize("C", [2, 3, 17])
def test_min_solution_growth_matches_oracle_on_title_family(C):
    bits = _digit_budget_bits(DEFAULT_DIGIT_BUDGET)
    result = min_solution_growth(TITLE, C, range(2, 17))
    assert result.skipped == ()
    for rec in result.records:
        want = plain_min_solution(rec.D, C, None, bits)
        assert (rec.X, rec.Y, rec.value) == (
            want.X, want.Y, want.value), rec.n


@pytest.mark.parametrize("budget", [6000, 7000, 8000])
def test_min_solution_growth_matches_oracle_under_digit_caps(budget):
    # The benchmark's capped scan: n = 17 is over every one of these budgets.
    bits = _digit_budget_bits(budget)
    result = min_solution_growth(TITLE, 2, range(10, 18), digit_budget=budget)
    assert (17, "cap") in result.skipped
    by_n = {rec.n: rec for rec in result.records}
    for n in range(10, 18):
        want = plain_min_solution(2 * 4**n + 1, 2, None, bits)
        got = by_n.get(n)
        assert (want is None) == (got is None), n
        if want is not None:
            assert (got.X, got.Y) == (want.X, want.Y), n


def test_capped_rows_build_no_convergent_past_twice_the_cap(monkeypatch):
    built = []

    def recording(fn, size):
        def wrapper(*args):
            result = fn(*args)
            built.append(size(result))
            return result
        return wrapper

    monkeypatch.setattr(surd, "_word_matrix", recording(
        surd._word_matrix, lambda m: max(m).bit_length()))
    monkeypatch.setattr(surd, "_pell_from_half", recording(
        surd._pell_from_half, lambda pq: pq[1].bit_length()))
    cases = [(D, C, (1 << bits) - 1) for D in range(2, 3000) if not is_perfect_square(D)
             for C in (2, 3, 17) for bits in (10, 64)]
    cases += [(2 * 4**n + 1, 2, (1 << _digit_budget_bits(budget)) - 1)
              for n in range(10, 18) for budget in (6000, 7000, 8000)]
    caps = 0
    for D, C, y_max in cases:
        built.clear()
        if _least_convergent_below(D, math.isqrt(D), C, y_max) is None:
            caps += 1
            cap_bits = y_max.bit_length()
            assert max(built, default=0) <= 2 * cap_bits + 2, (D, C, cap_bits, built)
    assert caps > 1000


def test_least_squares_slope():
    assert least_squares_slope([(1, 1.0), (2, 2.0), (3, 3.0)]) == pytest.approx(1.0)
    assert least_squares_slope([(1, 1.0)]) is None


def test_denominator_growth_3n_plus_1():
    records = denominator_growth(parse_form("3^n + 1"), 2, range(1, 13))
    by_n = {rec.n: rec for rec in records}
    assert by_n[4].denominator == 8
    assert by_n[1].denominator == 1
    for n in range(2, 13):
        expected = 2 ** (n - 2) if n % 2 else 2 ** (n - 1)
        assert by_n[n].denominator == expected
    # Exact flag: denominator^2 < 2^n, i.e. denominator < exp(n ln2 / 2).
    assert sorted(rec.n for rec in records if rec.flagged) == [1, 3]


def test_denominator_growth_divisible_roots():
    records = denominator_growth(parse_form("2*4^n"), 2, range(1, 9))
    assert all(rec.denominator == 1 for rec in records)
    assert all(rec.flagged for rec in records)  # allowed: 2 divides the root


def test_denominator_growth_validates_input():
    with pytest.raises(ValueError, match="invalid b"):
        denominator_growth(parse_form("3^n + 1"), 1, range(1, 3))
    with pytest.raises(ValueError, match="integer coefficients"):
        denominator_growth(normalize([(F(1, 2), 3)]), 2, range(1, 3))


def test_partial_quotient_profile_title():
    (prof,), _ = partial_quotient_profile(TITLE, range(3, 4), 10.0)  # D = 129
    assert prof.D == 129
    assert prof.max_partial_quotient == 22  # 2*a0, inside the first period
    (prof,), _ = partial_quotient_profile(TITLE, range(2, 3), 10.0)  # D = 33
    assert prof.max_partial_quotient == 10


def test_partial_quotient_profile_h_squared_plus_one():
    (prof,), _ = partial_quotient_profile(parse_form("4^n + 1"), range(3, 4), 10.0)  # D = 65
    assert prof.max_partial_quotient == 16


def test_partial_quotient_profile_skips_squares():
    assert partial_quotient_profile(TITLE, range(1, 2), 2.0) == ([], [(1, "square")])  # f(1) = 9


def test_partial_quotient_profile_exponents_near_two():
    (prof,), _ = partial_quotient_profile(TITLE, range(4, 5), 8.0)
    assert prof.effective_exponents
    assert all(1.5 < e < 5 for e in prof.effective_exponents)


def test_partial_quotient_profile_refuses_its_range_before_any_row():
    # c first, then n >= 0, then the price of exp(c*n) at the last n; an
    # empty range has no last n to price.
    with pytest.raises(ValueError, match="invalid c"):
        partial_quotient_profile(TITLE, range(-1, 10**9), math.inf)
    with pytest.raises(ValueError, match="negative n"):
        partial_quotient_profile(TITLE, range(-1, 10**9), 1.0)
    with pytest.raises(surd.ResourceLimitError, match=r"exp\(1\.0\*999999999\)"):
        partial_quotient_profile(TITLE, range(0, 10**9), 1.0)
    assert partial_quotient_profile(TITLE, range(5, 5), 1e308) == ([], [])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=6))
def test_scan_brute_force_property(D, C):
    if is_perfect_square(D) or C * C > D:
        return
    got = bounded_pell_solutions(D, C, y_limit=50).solutions
    expected = brute_force_pell(D, C, 50)
    assert sorted(_tuples(got)) == sorted(_tuples(expected))
