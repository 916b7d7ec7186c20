"""Continued fractions of sqrt(D): words, periods, convergents, Pell.

Derived fixtures here were computed by the independent oracle below
(high-precision numeric continued fraction via mpmath) and cross-checked
against the exact surd recurrence before being frozen.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import count, islice

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surdlab import surd
from surdlab.forms import eval_int
from surdlab.harness import _identity_families
from surdlab.intervals import sqrt_interval
from surdlab.surd import (
    DEFAULT_WORD_CAP,
    CFExpansion,
    PellSolution,
    ResourceLimitError,
    SquareInputError,
    _digit_budget_bits,
    cf_sqrt,
    cf_stream,
    fundamental_pell,
    pell_value_stream,
    period_bound_ratio,
    period_length,
)

from oracles import (
    is_perfect_square,
    palindrome_pell,
    plain_midpoint_walk,
    plain_period,
    plain_period_word,
    plain_states,
)


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
    for op in (cf_sqrt, period_length, lambda D: next(pell_value_stream(D)), fundamental_pell):
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
    """The midpoint walk against the full classical walk of ``plain_period``; r.

    ``cf_sqrt`` runs at word caps around r and ``period_length`` once.
    ``_midpoint_walk`` runs with below in {0, 2, 50} and at each record
    low d_j of the first half (below = d_j + 1 stops it at step j, of
    either parity), at each of these keeps: keep = 0..3 hands the walk to
    its second loop after step 1 or 2, keep = r - 2 .. r + 2 around the
    midpoint, and keep >= r not at all, so the second loop starts on
    either parity of step and stops in each of its four places.
    """
    a0 = math.isqrt(D)
    period = plain_period(D)
    word = tuple(period[0])
    r = len(word)
    # The midpoint walk relies on this, and family rows report it unchecked.
    assert word[:-1] == word[-2::-1] and word[-1] == 2 * a0
    assert period_length(D) == r
    for cap in {1, 2, r - 1, r, r + 1, DEFAULT_WORD_CAP} - {0}:
        assert cf_sqrt(D, cap) == CFExpansion(D, a0, word if r <= cap else None, r)
    belows = {0, 2, 50, *(period[1][j] + 1 for j in record_steps(period[1]))}
    for keep in {0, 1, 2, 3, max(r - 2, 0), r - 1, r, r + 1, r + 2, 10**6}:
        for below in belows:
            assert (surd._midpoint_walk(D, a0, keep, below)
                    == plain_midpoint_walk(D, keep, below, period)), (D, keep, below)
    return r


def record_steps(dens: list[int]) -> list[int]:
    """Each j in 1..r // 2 whose d_j is below every d_i, 0 < i < j.

    ``dens`` is d_0 .. d_r, as ``plain_period`` gives it.
    """
    steps = []
    for j in range(1, (len(dens) - 1) // 2 + 1):
        if not steps or dens[j] < dens[steps[-1]]:
            steps.append(j)
    return steps


def test_midpoint_walk_matches_full_walk_below_20000():
    periods = set()
    for D in range(2, 20000):
        if not is_perfect_square(D):
            periods.add(assert_midpoint_walk_matches_oracle(D))
    assert set(range(1, 30)) <= periods
    # The record lows stop the walk on both steps of its two-step turn.
    assert {j % 2 for D in range(2, 200) if not is_perfect_square(D)
            for j in record_steps(plain_period(D)[1])} == {0, 1}


def test_midpoint_walk_matches_oracle_on_seeded_draws():
    # Ten seeded (keep, below) draws, around r and the d_j, for each of
    # ~1,200 D, word-size and multi-limb: ~12,000 draws.
    rng = random.Random(24)
    pool = [D for D in rng.sample(range(2, 10**6), 1_000) if not is_perfect_square(D)]
    pool += seeded_multilimb_D()
    draws = 0
    for D in pool:
        period = plain_period(D)
        r, dens = len(period[0]), period[1]
        for _ in range(10):
            keep = rng.choice([0, 1, 2, 3, r, rng.randrange(max(r - 3, 0), r + 4),
                               rng.randrange(0, 2 * r + 4)])
            below = rng.choice([0, 2, 3, rng.randrange(0, 100), rng.choice(dens) + 1,
                                rng.choice(dens) + rng.randrange(-1, 2)])
            assert (surd._midpoint_walk(D, math.isqrt(D), keep, below)
                    == plain_midpoint_walk(D, keep, below, period)), (D, keep, below)
            draws += 1
    assert draws >= 10_000


def test_midpoint_walk_matches_full_walk_on_title_family():
    for n in range(2, 20):  # r(2*4^19 + 1) = 404,762
        assert_midpoint_walk_matches_oracle(2 * 4**n + 1)


def test_midpoint_walk_matches_full_walk_on_multilimb_identities():
    # Periods 1 and 2 on D of up to ~1,100 bits: h^2 + 1 and v^2 w^2 + 2w.
    families = list(_identity_families())
    for n in range(1, 201):
        for _, f, _, _ in families:
            assert_midpoint_walk_matches_oracle(eval_int(f, n))


def seeded_multilimb_D() -> list[int]:
    """200 seeded D = h^2 + k with k | 4h, less the perfect squares.

    D of this (Richaud-Degert) type have short periods at any size; here h
    has 64-400 bits and r runs over 1, 2, 4, 5, 6, ....
    """
    rng = random.Random(19)
    out = []
    for _ in range(200):
        s = rng.randrange(1, 13)
        h = s * (rng.getrandbits(rng.randrange(64, 400)) | 1)
        out.append(h * h + rng.choice([1, 2, 4]) * s * rng.choice([1, -1]))
    return [D for D in out if not is_perfect_square(D)]


def test_midpoint_walk_matches_full_walk_on_seeded_multilimb_D():
    periods = {assert_midpoint_walk_matches_oracle(D) for D in seeded_multilimb_D()}
    assert {1, 2} <= periods and any(r % 2 for r in periods - {1})


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
    def pq(D, count):
        return [(p, q) for _, p, q, _, _ in islice(pell_value_stream(D), count)]

    assert pq(33, 4) == [(5, 1), (6, 1), (17, 3), (23, 4)]
    assert pq(2, 3) == [(1, 1), (3, 2), (7, 5)]
    assert pq(17, 2) == [(4, 1), (33, 8)]


@given(st.integers(min_value=2, max_value=3000))
@settings(max_examples=80)
def test_convergent_invariants(D):
    if is_perfect_square(D):
        return
    cs = list(islice(pell_value_stream(D), 8))
    for _, p, q, _, _ in cs:
        assert math.gcd(p, q) == 1
    for (_, p0, q0, _, _), (j, p, q, _, _) in zip(cs, cs[1:]):
        assert p * q0 - p0 * q == (-1) ** (j - 1)


def test_convergent_quality_certified():
    # |sqrt(D) - p/q| < 1/q^2 at precision beyond 2*log2(q) bits.
    for D in (2, 33, 129, 1021, 9949):
        if is_perfect_square(D):
            continue
        r = period_length(D)
        cs = list(islice(pell_value_stream(D), r))
        bits = 2 * cs[-1][2].bit_length() + 32
        root = sqrt_interval(D, bits)
        for _, p, q, _, _ in cs:
            err = abs(root - Fraction(p, q))
            assert err.certainly_below(Fraction(1, q * q))


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


def assert_streams_match_classical_oracle(D: int) -> None:
    """Both streams over two full periods, past d_r = 1, against ``plain_states``.

    The oracle's convergents are built from its own quotients, and their
    Pell values are computed directly, not from the d_{j+1} identity.
    """
    steps = 2 * len(plain_period_word(D))
    states = list(islice(plain_states(D), steps + 1))
    assert list(islice(cf_stream(D), steps + 1)) == [
        (a, P, Q, k) for k, (a, P, Q) in enumerate(states)]
    expected = []
    p, p_prev, q, q_prev = states[0][0], 1, 1, 0
    for a_next, _, _ in states[1:]:
        expected.append((p, q, p * p - D * q * q, a_next))
        p, p_prev = a_next * p + p_prev, p
        q, q_prev = a_next * q + q_prev, q
    got = list(islice(pell_value_stream(D), steps))
    assert [j for j, *_ in got] == list(range(steps))
    assert [tuple(row[1:]) for row in got] == expected


def test_streams_match_classical_oracle_below_3000():
    for D in range(2, 3000):
        if not is_perfect_square(D):
            assert_streams_match_classical_oracle(D)


def test_streams_match_classical_oracle_on_seeded_multilimb_D():
    for D in seeded_multilimb_D():
        assert_streams_match_classical_oracle(D)


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


@pytest.mark.parametrize("D, r", [
    (101, 1), (3, 2), (6, 2), (41, 3), (33, 4), (19, 6), (181, 21), (1019, 26), (1021, 49),
])
def test_fundamental_pell_digit_budget_boundary(D, r):
    # The least budget whose bits hold X answers; one digit less refuses.
    X, Y, value, period = linear_pell(D)
    assert period == r
    budget = next(b for b in count(1) if X.bit_length() <= _digit_budget_bits(b))
    assert fundamental_pell(D, digit_budget=budget) == PellSolution(X, Y, value)
    if budget > 1:
        with pytest.raises(ResourceLimitError, match=f"over the {budget - 1}-digit budget"):
            fundamental_pell(D, digit_budget=budget - 1)
    else:
        assert D in (101, 3, 6)


def test_fundamental_pell_has_no_period_cap():
    # r = 160,838 and X has 82,704 digits, inside the default budget.
    D = 996_781_516_149
    r = period_length(D)
    assert r == 160_838
    sol = fundamental_pell(D)
    assert sol.value == (-1) ** r
    assert 10**82_703 <= sol.X < 10**82_704


def _count_to(limit):
    """A stand-in for ``range`` that fails past ``limit`` steps.

    The walk's kept loop takes one step per turn over ``range``, so it
    passes with up to ``limit`` steps and fails once a turn would start
    at step ``limit`` or later.  ``turns`` counts the turns started, so a
    walk that no longer loops over ``range`` cannot pass unseen.
    """
    def counted(*args):
        for k in range(*args):
            if k >= limit:
                raise AssertionError(f"walk past {limit} steps")
            counted.turns += 1
            yield k
    counted.turns = 0
    return counted


def test_fundamental_pell_refusal_walk_is_bounded(monkeypatch):
    # 2*4^n + 1, 2^43 + 1 and 10^k + 3 have periods far too long to walk
    # here; the digit budget ends the walk within 2 * bits(budget) steps,
    # before X is built.
    long_periods = [2 * 4**n + 1 for n in range(100, 140)]
    long_periods += [2**43 + 1] + [10**k + 3 for k in (21, 25, 31, 41, 61)]
    for budget in range(1, 40):
        counted = _count_to(2 * _digit_budget_bits(budget))
        monkeypatch.setattr(surd, "range", counted, raising=False)
        for D in long_periods:
            with pytest.raises(ResourceLimitError, match="more than"):
                fundamental_pell(D, budget)
        assert counted.turns > 0


@pytest.mark.parametrize("keep", [1, 2, 3, 6, 7, 40])
def test_below_walk_gives_up_past_the_kept_half(monkeypatch, keep):
    # r(2*4^10 + 1) = 702 and d_k >= 2 for 0 < k < r, so a walk with
    # below = 2 never hits: it stops with no half once it would keep more
    # than keep // 2 quotients, after keep // 2 + 1 steps.
    D = 2 * 4**10 + 1
    r = period_length(D)
    m, d = next((m_k, d_k) for _, m_k, d_k, k in cf_stream(D) if k == keep // 2 + 1)
    counted = _count_to(keep // 2 + 1)
    monkeypatch.setattr(surd, "range", counted, raising=False)
    assert (surd._midpoint_walk(D, math.isqrt(D), keep, below=2)
            == (None, None, d, math.isqrt(D) + m))
    assert counted.turns == keep // 2 + 1
    monkeypatch.undo()
    # Without below the same walk drops the half and goes on to r.
    assert surd._midpoint_walk(D, math.isqrt(D), keep)[:2] == (r, None)


def test_fundamental_pell_anchor_matches_linear_oracle():
    D = 5_000_000_009
    X, Y, value, r = linear_pell(D)
    assert r == 31_776
    assert fundamental_pell(D) == PellSolution(X, Y, value)


@pytest.mark.parametrize("D, r", [(2, 1), (3, 2), (13, 5), (129, 10)])
def test_fundamental_pell_on_edge_periods_matches_plain_states(D, r):
    # The first convergent p_{k-1}/q_{k-1} with Q_k = 1, from the classical
    # walk; every earlier one has |p**2 - D*q**2| = Q_k >= 2.
    p, p_prev, q, q_prev = math.isqrt(D), 1, 1, 0
    for k, (a, _, Q) in enumerate(islice(plain_states(D), 1, None), 1):
        assert abs(p * p - D * q * q) == Q
        if Q == 1:
            break
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    assert k == r == period_length(D)
    assert fundamental_pell(D) == PellSolution(p, q, (-1) ** r)


@pytest.mark.parametrize("D, r", [(19, 6), (13, 5)])
def test_pell_from_half_refuses_a_wrong_quotient_or_d(D, r):
    a0 = math.isqrt(D)
    walked, half, d, P = surd._midpoint_walk(D, a0, r)
    assert walked == r
    X, Y, value, _ = linear_pell(D)
    assert surd._pell_from_half(D, a0, r, half, d, P) == (X, Y, value)
    # Even r builds from a_1 .. a_{h-1} alone; odd r reads the whole half.
    for i in range(len(half) if r % 2 else len(half) - 1):
        for delta in (-1, 1):
            bad = half.copy()
            bad[i] += delta
            if bad[i] > 0:
                with pytest.raises(AssertionError, match="pell value identity violated"):
                    surd._pell_from_half(D, a0, r, bad, d, P)
    # The midpoint state: d = d_h and P = P_{h+1}, which is P_h for even r.
    for delta in (-1, 1):
        for bad_d, bad_P in ((d + delta, P), (d, P + delta)):
            with pytest.raises(AssertionError, match="pell value identity violated"):
                surd._pell_from_half(D, a0, r, half, bad_d, bad_P)


def test_pell_from_half_refuses_a_unit_that_does_not_divide():
    # A wrong state whose norm still matches d: r = 2, h = 1 and P = 3
    # give alpha_1 = 1 + sqrt(6), of norm -5 = -d, so only the remainder
    # of (1 + 6)/5 shows it.  (For odd r the row makes d divide Y's
    # numerator d*(q_h**2 + q_{h-1}**2) identically.)
    D, r, d, P = 6, 2, 5, 3
    half = surd._midpoint_walk(D, math.isqrt(D), r)[1]
    with pytest.raises(AssertionError, match="pell value identity violated"):
        surd._pell_from_half(D, math.isqrt(D), r, half, d, P)


def test_word_row_is_the_first_row_of_word_matrix():
    # 0 - 300 quotients: past the 64-quotient leaf and down the left spine.
    rng = random.Random(37)
    for n in range(301):
        word = [rng.randrange(1, 1 << rng.randrange(1, 40)) for _ in range(n)]
        lo = rng.randrange(n + 1)
        for start in (0, lo):
            assert surd._word_row(word, start, n) == surd._word_matrix(word, start, n)[:2]


def test_midpoint_row_reads_p_below_2000():
    # p_{k-1} = m_k*q_{k-1} + d_k*q_{k-2} at every k up to the midpoint
    # state (h, or h + 1 for odd r), and p_{h-1} = d_h*q_h - m_{h+1}*q_{h-1}
    # for odd r, against the classical convergents.
    for D in range(2, 2000):
        if is_perfect_square(D):
            continue
        word, dens, nums = plain_period(D)
        r, h = len(word), len(word) // 2
        p_prev, q_prev, p, q = 1, 0, math.isqrt(D), 1  # p_{-1}, q_{-1}, p_0, q_0
        ps, qs = [p_prev, p], [q_prev, q]  # index j + 1 holds p_j, q_j
        for a in word[:h]:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            ps.append(p)
            qs.append(q)
        for k in range(1, h + 1 + r % 2):
            x, y = surd._word_row(word, 0, k - 1)
            assert (x, y) == (qs[k], qs[k - 1]), (D, k)
            assert ps[k] == nums[k] * x + dens[k] * y, (D, k)
        if r % 2:
            assert ps[h] == dens[h] * qs[h + 1] - nums[h + 1] * qs[h], D


def test_fundamental_pell_is_certified_without_the_full_size_check(monkeypatch):
    checked = surd._checked
    calls = []

    def recording(D, p, q, value):
        calls.append(D)
        return checked(D, p, q, value)

    monkeypatch.setattr(surd, "_checked", recording)
    for D in (2, 3, 13, 19, 129, 5_000_000_009):
        fundamental_pell(D)
    assert calls == []
    # d_1 = 3 for D = 19: a min-Y row with C = 4 stops before the midpoint
    # and still checks its convergent 4/1 directly.
    assert surd._least_convergent_below(19, 4, 4, 10**6) == PellSolution(4, 1, -3)
    assert calls == [19]


@given(st.integers(min_value=2, max_value=10**12 - 1))
@settings(max_examples=200, deadline=None)
def test_fundamental_pell_matches_palindrome_product(D):
    assume(not is_perfect_square(D))
    # The budget refuses the longest periods after a short walk, which
    # bounds the time per draw; most D < 10**12 fit in it.
    try:
        sol = fundamental_pell(D, digit_budget=50_000)
    except ResourceLimitError:
        assume(False)
    a0 = math.isqrt(D)
    # keep = 2*D >= r, as sqrt(D) has fewer than 2*D reduced states.
    r, half = surd._midpoint_walk(D, a0, 2 * D)[:2]
    assert (sol.X, sol.Y) == palindrome_pell(a0, r, half)
    assert sol.X * sol.X - D * sol.Y * sol.Y == sol.value == (-1) ** r


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
