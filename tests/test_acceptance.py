"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 8 checks the exact denominators of (3^n + 1)/2^n against their
closed form and that the sub-threshold flag fires on a finite initial
range only: exactly at n = 1 and n = 3 over n = 1..64.  The n = 3 flag is
forced by exact arithmetic, since the denominator there is 2 and
2 < exp(3*ln(2)/2) = 2.828...
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

from surdlab.expansion import (
    FAILS,
    compose_affine,
    decide_hypothesis,
    error_table,
    growth_exponent,
    sqrt_approximation,
    trivial_criterion,
)
from surdlab.forms import add, mul, parse_form
from surdlab.growth import (
    bounded_pell_solutions,
    denominator_growth,
    min_solution_growth,
)
from surdlab.harness import ExperimentConfig, FamilyRecord, run_family, suffix_min_periods
from surdlab.intervals import sqrt_interval
from surdlab.surd import cf_sqrt, pell_value_stream

from oracles import brute_force_pell, is_perfect_square

TITLE = parse_form("2*4^n + 1")


def _report(index: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} ({detail})")


def _numeric_cf(D: int, count: int) -> list[int]:
    """Independent oracle: numeric CF at two precisions, digits must agree."""
    runs = []
    for dps in (60, 90):
        mpmath.mp.dps = dps
        x = mpmath.sqrt(D)
        out = []
        for _ in range(count):
            a = int(mpmath.floor(x))
            out.append(a)
            x = 1 / (x - a)
        runs.append(out)
    assert runs[0] == runs[1]
    return runs[0]


def test_acceptance_1_title_family_table():
    """Title family rows for n = 1..3, re-derived before frozen; < 1 s."""
    t0 = time.monotonic()

    # Re-derive the fixtures with the independent numeric oracle first.
    fixtures = {2: (5, (1, 2, 1, 10)), 3: (11, (2, 1, 3, 1, 6, 1, 3, 1, 2, 22))}
    for n, (a0, word) in fixtures.items():
        D = 2 * 4**n + 1
        oracle = _numeric_cf(D, len(word) + 1)
        assert oracle[0] == a0 and tuple(oracle[1:]) == word

    records = run_family(ExperimentConfig(TITLE, 1, 3))
    assert records[0] == FamilyRecord(1, 9, True, None, None, None, None, "square")
    assert records[1].D == 33 and records[1].r == 4
    assert records[2].D == 129 and records[2].r == 10
    assert cf_sqrt(33).period == fixtures[2][1]
    assert cf_sqrt(129).period == fixtures[3][1]

    elapsed = time.monotonic() - t0
    ok = elapsed < 1.0
    _report(1, ok, f"rows n=1..3 match oracle fixtures, {elapsed:.2f}s < 1s")
    assert ok


def test_acceptance_2_growth_witness():
    """Suffix-min of r grows over [2, 20]; log Y_min slope > 0 over [2, 14]."""
    t0 = time.monotonic()

    records = run_family(ExperimentConfig(TITLE, 2, 20))
    pairs = suffix_min_periods(records)
    values = [v for _, v in pairs]
    nondecreasing = values == sorted(values)
    strictly_grew = pairs[-1][1] > pairs[0][1]

    result = min_solution_growth(TITLE, 2, range(2, 15))
    slope_positive = result.slope is not None and result.slope > 0

    elapsed = time.monotonic() - t0
    ok = nondecreasing and strictly_grew and slope_positive and elapsed < 600
    _report(
        2,
        ok,
        f"suffix-min {pairs[0][1]} -> {pairs[-1][1]}, "
        f"slope {result.slope:.2f} > 0, {elapsed:.1f}s < 600s",
    )
    assert nondecreasing and strictly_grew
    assert slope_positive
    assert elapsed < 600


def test_acceptance_3_negative_controls():
    """4^n + 1 has r = 1 on [1, 12]; v=2^n, w=3^n family has r = 2 on [1, 8]."""
    even = run_family(ExperimentConfig(parse_form("4^n + 1"), 1, 12))
    even_ok = all(rec.r == 1 for rec in even)
    assert even_ok

    family_ok = True
    for n in range(1, 9):
        D = 36**n + 2 * 3**n
        exp = cf_sqrt(D)
        v, w = 2**n, 3**n
        family_ok &= exp.a0 == v * w and exp.period == (v, 2 * v * w)
    assert family_ok
    _report(3, even_ok and family_ok, "r=1 on [1,12]; r=2 with word {v, 2vw} on [1,8]")


def test_acceptance_4_hypothesis_decisions():
    """Exact verdicts and witnesses; structural equality at zero tolerance."""
    title_report = decide_hypothesis(TITLE)
    ok = title_report.holds and trivial_criterion(TITLE)

    for text in ("4^n + 1", "9^n + 2*3^n + 1", "4^n + 2^n + 1"):
        f = parse_form(text)
        report = decide_hypothesis(f)
        ok &= report.verdict == FAILS and bool(report.witnesses)
        for w in report.witnesses:
            composed = compose_affine(f, w.parity)
            ok &= add(mul(w.root, w.root), w.remainder) == composed
            ok &= growth_exponent(w.remainder, composed) < Fraction(1, 2)

    _report(4, ok, "holds for title form; exact witnesses for the three failures")
    assert ok


def test_acceptance_5_cf_invariants_to_1e4():
    """Palindrome, closing 2*a0, determinants, certified quality, Pell sign."""
    t0 = time.monotonic()
    checked = 0
    for D in range(2, 10001):
        if is_perfect_square(D):
            continue
        exp = cf_sqrt(D)
        word = exp.period
        assert word[-1] == 2 * exp.a0, D
        assert word[:-1] == word[-2::-1], D

        cs = list(islice(pell_value_stream(D), exp.r))
        for (_, p0, q0, _, _), (j, p, q, _, _) in zip(cs, cs[1:]):
            assert p * q0 - p0 * q == (-1) ** (j - 1), D
        _, p, q, _, _ = cs[-1]
        assert p**2 - D * q**2 == (-1) ** exp.r, D

        root = sqrt_interval(D, 2 * q.bit_length() + 32)
        for j, p, q, _, _ in cs:
            err = abs(root - Fraction(p, q))
            assert err.certainly_below(Fraction(1, q * q)), (D, j)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    _report(5, ok, f"{checked} expansions, zero failures, {elapsed:.1f}s < 120s")
    assert ok


def test_acceptance_6_pell_oracle_equivalence():
    """Convergent scan == brute force for all non-square D <= 500, C <= sqrt(D)."""
    y_limit = 300
    pairs = 0
    for D in range(2, 501):
        if is_perfect_square(D):
            continue
        c_max = math.isqrt(D)
        oracle = brute_force_pell(D, c_max, y_limit)
        for C in range(1, c_max + 1):
            got = bounded_pell_solutions(D, C, y_limit=y_limit)
            expected = [s for s in oracle if abs(s.value) < C]
            assert [(s.X, s.Y, s.value) for s in got.solutions] == [
                (s.X, s.Y, s.value) for s in sorted(expected, key=lambda s: (s.Y, s.X))
            ], (D, C)
            pairs += 1
    _report(6, True, f"{pairs} (D, C) scans agree with brute force exactly")


def test_acceptance_7_expansion_decay():
    """Certified error of sqrt(2)*f1(n)/8^n shrinks 4x..16x per n on [2, 24]."""
    approx = sqrt_approximation(TITLE, 0)
    assert approx.depth == 2
    assert approx.error_base == 8
    assert approx.series_form == parse_form("16^n + (1/4)*4^n")

    ok = True
    for n, ((lo, _), _), decay in error_table(approx, range(2, 25)):
        assert lo > 0
        if decay is not None:
            d_lo, d_hi = (Fraction(*ratio) for ratio in decay)
            ok &= d_lo >= 4 and d_hi <= 16
    _report(7, ok, "certified decay within [4, 16] per unit n over [2, 24]")
    assert ok


def _denominator_closed_form(n: int) -> int:
    """Denominator of (3^n + 1)/2^n in lowest terms, for n >= 1.

    3^n + 1 is 4 mod 8 for odd n and 2 mod 8 for even n, so it carries
    exactly two factors of 2 for odd n and one for even n.
    """
    if n == 1:
        return 1
    return 2 ** (n - 2) if n % 2 else 2 ** (n - 1)


def test_acceptance_8_denominator_instance():
    """Exact denominators of (3^n + 1)/2^n; the flag fires only at n = 1, 3.

    The denominator is 1 at n = 1, 2^(n-2) for odd n >= 3 and 2^(n-1)
    for even n.  A record is flagged when its denominator is below
    exp(n*ln(2)/2), i.e. den^2 < 2^n.  From the closed form: n = 1 is
    flagged (1 < 2); odd n >= 3 gives 2^(2n-4) < 2^n only for n = 3
    (denominator 2 < 2.828...); even n gives 2^(2n-2) >= 2^n, with
    equality at n = 2, which the strict comparison does not flag.  The
    expected set is derived here from the closed form and cross-checked
    against the threshold computed in mpmath, never read back from the
    program.
    """
    n_values = range(1, 65)
    records = denominator_growth(parse_form("3^n + 1"), 2, n_values)
    by_n = {rec.n: rec for rec in records}

    expected = {n: _denominator_closed_form(n) for n in n_values}
    off_formula = [n for n in n_values if by_n[n].denominator != expected[n]]
    assert not off_formula, f"denominators off the closed form at n={off_formula}"

    expected_flagged = sorted(n for n, den in expected.items() if den * den < 2**n)
    with mpmath.workdps(50):
        for n, den in expected.items():
            threshold = mpmath.exp(n * mpmath.log(2) / 2)
            if abs(den - threshold) < mpmath.mpf(10) ** -40 * threshold:
                # den equals the threshold exactly (n = 2): not below it.
                assert den * den == 2**n and n not in expected_flagged, n
            else:
                assert (den < threshold) == (n in expected_flagged), n

    flagged = sorted(rec.n for rec in records if rec.flagged)
    flags_ok = flagged == expected_flagged == [1, 3]
    _report(
        8,
        flags_ok,
        f"denominator formula exact on n=1..64; flags fired at n={flagged}, "
        f"closed form and mpmath threshold give n={expected_flagged}",
    )
    assert flags_ok, (flagged, expected_flagged)
