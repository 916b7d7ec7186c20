"""Continued fractions of sqrt(D): words, periods, convergents, Pell.

Derived fixtures here were computed by the independent oracle below
(high-precision numeric continued fraction via mpmath) and cross-checked
against the exact surd recurrence before being frozen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surdlab.forms import eval_int
from surdlab.harness import _default_h_grid, _default_vw_grid
from surdlab.intervals import sqrt_interval
from surdlab.surd import (
    DEFAULT_WORD_CAP,
    CFExpansion,
    Convergent,
    PellSolution,
    ResourceLimitError,
    SquareInputError,
    cf_sqrt,
    cf_stream,
    convergents,
    fundamental_pell,
    is_perfect_square,
    pell_value_stream,
    period_bound_ratio,
    period_length,
)

from oracles import plain_period_word


def numeric_cf_oracle(D: int, count: int) -> list[int]:
    """Partial quotients of sqrt(D) from high-precision numerics.

    Computed at two precisions; only digits on which both runs agree are
    trusted (a disagreement would mean the precision was too low).
    """
    results = []
    for dps in (60, 90):
        mpmath.mp.dps = dps
        x = mpmath.sqrt(D)
        out = []
        for _ in range(count):
            a = int(mpmath.floor(x))
            out.append(a)
            x = 1 / (x - a)
        results.append(out)
    assert results[0] == results[1], "oracle precision too low"
    return results[0]


# Frozen via numeric_cf_oracle and the surd recurrence (both agree).
KNOWN_EXPANSIONS = {
    2: (1, (2,)),
    17: (4, (8,)),
    33: (5, (1, 2, 1, 10)),
    101: (10, (20,)),
    129: (11, (2, 1, 3, 1, 6, 1, 3, 1, 2, 22)),
}


def test_is_perfect_square():
    assert is_perfect_square(16)
    assert not is_perfect_square(33)
    assert not is_perfect_square(-4)


@pytest.mark.parametrize("D,expected", sorted(KNOWN_EXPANSIONS.items()))
def test_cf_sqrt_frozen_words(D, expected):
    a0, period = expected
    exp = cf_sqrt(D)
    assert (exp.a0, exp.period) == (a0, period)
    assert exp.r == len(period)


@pytest.mark.parametrize("D", sorted(KNOWN_EXPANSIONS))
def test_cf_sqrt_matches_numeric_oracle(D):
    exp = cf_sqrt(D)
    oracle = numeric_cf_oracle(D, exp.r + 3)
    assert oracle[0] == exp.a0
    assert tuple(oracle[1 : exp.r + 1]) == exp.period
    # The word repeats immediately after the period.
    assert oracle[exp.r + 1] == exp.period[0]


@given(st.integers(min_value=2, max_value=50000))
@settings(max_examples=30, deadline=None)
def test_cf_prefix_matches_numeric_oracle(D):
    if is_perfect_square(D):
        return
    exp = cf_sqrt(D)
    count = min(exp.r, 25)
    oracle = numeric_cf_oracle(D, count + 1)
    assert oracle[0] == exp.a0
    assert tuple(oracle[1 : count + 1]) == exp.period[:count]


def test_cf_stream_first_quotients():
    assert [a for a, *_ in islice(cf_stream(2), 4)] == [1, 2, 2, 2]
    assert [a for a, *_ in islice(cf_stream(33), 9)] == [5, 1, 2, 1, 10, 1, 2, 1, 10]
    assert [a for a, *_ in islice(cf_stream(17), 3)] == [4, 8, 8]


def test_cf_stream_state_invariants():
    for D in (13, 33, 129, 1021):
        root = math.isqrt(D)
        for a, m, d, k in islice(cf_stream(D), 40):
            assert (D - m * m) % d == 0
            assert a == (root + m) // d
            if k >= 1:
                assert 0 < m <= root
                assert 0 < d < 2 * root + 2
                assert m * m < D
                assert d * d < 4 * D


def test_square_inputs_rejected():
    for op in (cf_sqrt, period_length, lambda D: convergents(D, 2), fundamental_pell):
        with pytest.raises(SquareInputError):
            op(9)
    with pytest.raises(ValueError):
        cf_sqrt(0)
    with pytest.raises(ValueError):
        cf_sqrt(-5)


def test_word_cap_elides_word_but_keeps_r():
    exp = cf_sqrt(129, word_cap=4)
    assert exp.period is None
    assert exp.r == 10


def test_word_cap_boundary():
    # r(129) = 10: a cap of exactly r keeps the whole word, one less elides it.
    assert cf_sqrt(129, word_cap=10).period == (2, 1, 3, 1, 6, 1, 3, 1, 2, 22)
    assert cf_sqrt(129, word_cap=9).period is None


def test_period_length_examples():
    assert period_length(2) == 1
    assert period_length(33) == 4
    assert period_length(101) == 1  # k^2 + 1 with k = 10


def test_period_bound_ratio_stays_bounded():
    ratios = {
        D: period_bound_ratio(D, period_length(D))
        for D in range(2, 3000)
        if not is_perfect_square(D)
    }
    assert 0 < max(ratios.values()) < 2
    # Tiny D inflate the ratio (ln D is small); past that it stays below 1.
    assert max(v for D, v in ratios.items() if D >= 50) < 1


def test_period_length_agrees_with_word_up_to_1e5():
    for D in range(2, 100001):
        if is_perfect_square(D):
            continue
        exp = cf_sqrt(D)
        assert period_length(D) == exp.r
        assert exp.period is not None and len(exp.period) == exp.r
        word = plain_period_word(D)
        assert exp.period == tuple(word)
        # The closing quotient is the largest, which family rows rely on.
        assert max(word) == 2 * exp.a0


def assert_midpoint_walk_matches_oracle(D: int) -> int:
    """``cf_sqrt`` at word caps around r, and ``period_length``, against
    the full classical walk of ``plain_period_word``; returns r."""
    a0 = math.isqrt(D)
    word = tuple(plain_period_word(D))
    r = len(word)
    # The midpoint walk relies on this, and family rows report it unchecked.
    assert word[:-1] == word[-2::-1] and word[-1] == 2 * a0
    assert period_length(D) == r
    for cap in {1, 2, r - 1, r, r + 1, DEFAULT_WORD_CAP} - {0}:
        assert cf_sqrt(D, cap) == CFExpansion(D, a0, word if r <= cap else None, r)
    return r


def test_midpoint_walk_matches_full_walk_below_20000():
    periods = set()
    for D in range(2, 20000):
        if not is_perfect_square(D):
            periods.add(assert_midpoint_walk_matches_oracle(D))
    assert set(range(1, 30)) <= periods


def test_midpoint_walk_matches_full_walk_on_title_family():
    for n in range(2, 20):  # r(2*4^19 + 1) = 404,762
        assert_midpoint_walk_matches_oracle(2 * 4**n + 1)


def test_midpoint_walk_matches_full_walk_on_multilimb_identities():
    # Periods 1 and 2 on D of up to ~1,100 bits: h^2 + 1 and v^2 w^2 + 2w.
    for n in range(1, 201):
        for h in _default_h_grid():
            hn = eval_int(h, n)
            assert_midpoint_walk_matches_oracle(hn * hn + 1)
        for v, w in _default_vw_grid():
            vn, wn = eval_int(v, n), eval_int(w, n)
            assert_midpoint_walk_matches_oracle(vn * vn * wn * wn + 2 * wn)


def test_cf_sqrt_matches_sympy_on_sample_up_to_2000():
    sympy = pytest.importorskip("sympy")
    # Every 23rd D: sympy's symbolic floor costs ~40 ms per D, and the
    # plain recurrence above already covers every D up to 1e5.
    for D in range(2, 2001, 23):
        if is_perfect_square(D):
            continue
        exp = cf_sqrt(D)
        assert sympy.continued_fraction_periodic(0, 1, D) == [exp.a0, list(exp.period)]
        assert period_length(D) == exp.r


def test_palindrome_and_closing_quotient_up_to_2000():
    for D in range(2, 2001):
        if is_perfect_square(D):
            continue
        exp = cf_sqrt(D)
        assert exp.period[-1] == 2 * exp.a0
        assert exp.period[:-1] == exp.period[-2::-1]


def test_convergents_frozen():
    assert [(c.p, c.q) for c in convergents(33, 4)] == [(5, 1), (6, 1), (17, 3), (23, 4)]
    assert [(c.p, c.q) for c in convergents(2, 3)] == [(1, 1), (3, 2), (7, 5)]
    assert [(c.p, c.q) for c in convergents(17, 2)] == [(4, 1), (33, 8)]


@given(st.integers(min_value=2, max_value=3000))
@settings(max_examples=80)
def test_convergent_invariants(D):
    if is_perfect_square(D):
        return
    cs = convergents(D, 8)
    for c in cs:
        assert math.gcd(c.p, c.q) == 1
    for prev, cur in zip(cs, cs[1:]):
        det = cur.p * prev.q - prev.p * cur.q
        assert det == (-1) ** (cur.j - 1)


def test_convergent_quality_certified():
    # |sqrt(D) - p/q| < 1/q^2 at precision beyond 2*log2(q) bits.
    for D in (2, 33, 129, 1021, 9949):
        if is_perfect_square(D):
            continue
        r = period_length(D)
        cs = convergents(D, r)
        bits = 2 * cs[-1].q.bit_length() + 32
        root = sqrt_interval(D, bits)
        for c in cs:
            err = abs(root - Fraction(c.p, c.q))
            assert err.certainly_below(Fraction(1, c.q * c.q))


def test_pell_value_stream_matches_direct_computation():
    for D in range(2, 300):
        if is_perfect_square(D):
            continue
        for _, p, q, value, _ in islice(pell_value_stream(D), 12):
            assert p * p - D * q * q == value


def test_pell_value_stream_next_quotient_and_d():
    # a_{j+1} and |value| = d_{j+1} agree with the per-step cf_stream view.
    for D in (2, 13, 33, 129, 1021):
        pairs = zip(islice(pell_value_stream(D), 40), islice(cf_stream(D), 1, 41))
        for (_, _, _, value, a_next), (a, _, d, _) in pairs:
            assert a_next == a
            assert abs(value) == d


def test_fundamental_pell_frozen():
    assert fundamental_pell(2) == PellSolution(1, 1, -1)
    assert fundamental_pell(33) == PellSolution(23, 4, 1)
    assert fundamental_pell(17) == PellSolution(4, 1, -1)


def test_fundamental_pell_textbook_values():
    # Classical least solutions of |X^2 - D*Y^2| = 1.
    assert fundamental_pell(13) == PellSolution(18, 5, -1)
    assert fundamental_pell(61) == PellSolution(29718, 3805, -1)
    assert fundamental_pell(109) == PellSolution(8890182, 851525, -1)
    assert fundamental_pell(67) == PellSolution(48842, 5967, 1)


def test_fundamental_pell_minimality_brute_force():
    # No Y below the reported one solves |X^2 - 33 Y^2| = 1.
    for Y in range(1, 4):
        X = math.isqrt(33 * Y * Y)
        assert abs(X * X - 33 * Y * Y) != 1
        assert abs((X + 1) ** 2 - 33 * Y * Y) != 1


def test_fundamental_pell_sign_is_period_parity():
    for D in range(2, 2001):
        if is_perfect_square(D):
            continue
        sol = fundamental_pell(D)
        r = period_length(D)
        assert sol.value == (-1) ** r
        assert sol.X * sol.X - D * sol.Y * sol.Y == sol.value


def test_fundamental_pell_minimality_sweep():
    # Brute force over Y < q_{r-1} finds no smaller |value| = 1 solution.
    for D in range(2, 301):
        if is_perfect_square(D):
            continue
        sol = fundamental_pell(D)
        for Y in range(1, min(sol.Y, 600)):
            X = math.isqrt(D * Y * Y)
            assert abs(X * X - D * Y * Y) != 1
            assert abs((X + 1) ** 2 - D * Y * Y) != 1


def test_fundamental_pell_respects_period_cap():
    with pytest.raises(ResourceLimitError):
        fundamental_pell(1021, period_cap=3)  # r(1021) = 49


def linear_pell(D: int) -> tuple[int, int, int, int]:
    """(p_{r-1}, q_{r-1}, (-1)**r, r) built one quotient at a time.

    Independent of surdlab: the word comes from ``plain_period_word`` and
    the convergent from the linear recurrence p_j = a_j*p_{j-1} + p_{j-2}.
    """
    a0 = math.isqrt(D)
    word = plain_period_word(D)
    p_prev, q_prev, p, q = 1, 0, a0, 1
    for a in word[:-1]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q, (-1) ** len(word), len(word)


def test_fundamental_pell_matches_linear_oracle_up_to_5000():
    periods = set()
    for D in range(2, 5001):
        if is_perfect_square(D):
            continue
        X, Y, value, r = linear_pell(D)
        assert fundamental_pell(D) == PellSolution(X, Y, value)
        assert X * X - D * Y * Y == value
        periods.add(r)
    # Both short cases of the midpoint rule: n^2 + 1 (r = 1), n^2 + 2 (r = 2).
    assert {1, 2, 3, 4} <= periods
    assert fundamental_pell(26) == PellSolution(5, 1, -1)
    assert fundamental_pell(27) == PellSolution(26, 5, 1)


@pytest.mark.parametrize(
    "D, r", [(3, 2), (6, 2), (41, 3), (33, 4), (19, 6), (181, 21), (1019, 26), (1021, 49)]
)
def test_fundamental_pell_cap_boundary(D, r):
    assert len(plain_period_word(D)) == r
    assert fundamental_pell(D, period_cap=r - 1) == fundamental_pell(D)
    with pytest.raises(ResourceLimitError, match=f"exceeds cap {r - 2}"):
        fundamental_pell(D, period_cap=r - 2)


def test_fundamental_pell_cap_zero_allows_period_one():
    assert fundamental_pell(101, period_cap=0) == PellSolution(10, 1, -1)


def test_fundamental_pell_anchor_matches_linear_oracle():
    D = 5_000_000_009
    X, Y, value, r = linear_pell(D)
    assert r == 31_776
    assert fundamental_pell(D) == PellSolution(X, Y, value)


def test_fundamental_pell_matches_sympy_diop_dn():
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    for D in range(2, 2001):
        if is_perfect_square(D):
            continue
        sol = fundamental_pell(D)
        negative = diophantine.diop_DN(D, -1)
        if sol.value == -1:
            assert negative == [(sol.X, sol.Y)]
            # The least solution of X^2 - D*Y^2 = 1 is the square of it.
            positive = (sol.X**2 + D * sol.Y**2, 2 * sol.X * sol.Y)
        else:
            assert negative == []
            positive = (sol.X, sol.Y)
        assert diophantine.diop_DN(D, 1) == [positive]


def test_expansion_dataclass_shape():
    exp = cf_sqrt(33)
    assert isinstance(exp, CFExpansion)
    assert isinstance(convergents(33, 1)[0], Convergent)
