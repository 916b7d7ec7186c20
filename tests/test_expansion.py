"""Square-root expansions and the square-decomposition hypothesis."""

from __future__ import annotations

import itertools
import math
import re
import time
from datetime import timedelta
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surdlab import expansion
from surdlab.expansion import (
    FAILS,
    HOLDS,
    HOLDS_TRIVIALLY,
    decide_hypothesis,
    error_table,
    growth_exponent,
    sqrt_approximation,
    sqrt_rational,
    trivial_criterion,
)
from surdlab.forms import (
    ZERO,
    add,
    compose_affine,
    constant,
    dominant,
    dominant_ratio,
    eval_exact,
    mul,
    normalize,
    parse_form,
    scale,
)
from surdlab.surd import ResourceLimitError

from oracles import (
    algebraic_residual,
    interval_approx_value,
    interval_error,
    interval_error_table,
    lead_base,
)

F = Fraction
TITLE = parse_form("2*4^n + 1")


def test_sqrt_rational():
    assert sqrt_rational(F(4)) == 2
    assert sqrt_rational(F(9, 4)) == F(3, 2)
    assert sqrt_rational(F(2)) is None
    assert sqrt_rational(F(8)) is None
    assert sqrt_rational(F(-4)) is None
    assert sqrt_rational(F(0)) == 0


# --- truncated expansions ---------------------------------------------------


def test_title_family_expansion_shape():
    approx = sqrt_approximation(TITLE, 0)
    assert approx.source == TITLE  # leading base 4 is already a square
    assert approx.lead_coefficient == 2
    assert approx.depth == 2
    assert approx.series_form == parse_form("16^n + (1/4)*4^n")
    assert approx.error_base == 8


def test_title_family_decay_numeric_oracle():
    # Independent check with plain high-precision numerics: the error of
    # sqrt(2)*f1(n)/8^n against sqrt(2*4^n+1) shrinks ~8x per unit n.
    mpmath.mp.dps = 60
    f1 = lambda n: mpmath.mpf(16) ** n + mpmath.mpf(1) / 4 * mpmath.mpf(4) ** n
    err = lambda n: abs(
        mpmath.sqrt(2 * mpmath.mpf(4) ** n + 1)
        - mpmath.sqrt(2) * f1(n) / mpmath.mpf(8) ** n
    )
    for n in range(2, 16):
        ratio = err(n) / err(n + 1)
        assert 7 < ratio < 9


def test_title_family_certified_decay_band():
    approx = sqrt_approximation(TITLE, 0)
    lo_bound = F(approx.error_base, 2)
    hi_bound = 2 * approx.error_base
    for n, ((lo, _), _), decay in error_table(approx, range(2, 25)):
        assert lo > 0
        if decay is not None:
            d_lo, d_hi = (F(*ratio) for ratio in decay)
            assert d_lo > lo_bound
            assert d_hi < hi_bound


def test_title_family_j1_expansion():
    approx = sqrt_approximation(TITLE, 1)
    assert approx.source == parse_form("8*16^n + 1")
    assert approx.lead_coefficient == 8
    assert approx.depth == 2
    assert approx.series_form == parse_form("256^n + (1/16)*16^n")
    assert approx.error_base == 64
    for n, ((lo, _), _), decay in error_table(approx, range(2, 13)):
        assert lo > 0
        if decay is not None:
            d_lo, d_hi = (F(*ratio) for ratio in decay)
            assert d_lo > 32
            assert d_hi < 128


def test_algebraic_residual_bound():
    # b1^((2k-1)n) * f - a1 * f1^2 must sit below b1^(2k-1) * b1, and in
    # fact below b1^(2k-1) / beta.
    for form in (TITLE, parse_form("8^n + 2^n"), parse_form("9^n + 2*3^n + 2")):
        approx = sqrt_approximation(form, 0)
        residual = algebraic_residual(approx)
        base = lead_base(approx)
        k = approx.depth
        assert not residual.is_zero
        top = dominant(residual)[1]
        assert top < base ** (2 * k)
        assert top <= base ** (2 * k - 1) / dominant_ratio(approx.source)


def test_title_residual_exact_value():
    approx = sqrt_approximation(TITLE, 0)
    assert algebraic_residual(approx) == normalize([(F(-1, 8), 16)])


def test_single_term_form_is_exact():
    approx = sqrt_approximation(parse_form("5^n"), 0)
    assert approx.source == parse_form("25^n")  # composed: 5 is not a square
    assert approx.series_form == ZERO
    assert approx.depth == 1
    assert approx.error_base is None
    assert approx.is_single_term
    assert _error_row(approx, 4, bits=64) == [0, 0]
    value = interval_approx_value(approx, 3, bits=64)
    assert value.lo <= 125 <= value.hi  # sqrt(25^3) = 125


def test_perfect_square_form_reproduced_exactly():
    f = parse_form("9^n + 2*3^n + 1")  # equals (3^n + 1)^2
    approx = sqrt_approximation(f, 0)
    assert approx.depth == 3
    assert approx.series_form == parse_form("729^n + 243^n")
    assert algebraic_residual(approx).is_zero
    # alpha = 1 and 9^((k-1/2)n) = 243^n, so f1(n)/243^n is 3^n + 1 on the nose.
    for n in range(1, 8):
        assert eval_exact(approx.series_form, n) / F(243) ** n == 3**n + 1


def test_composed_expansion_upper_bound():
    # 8^n + 2^n has a non-square leading base; j=0 composes to 64^n + 4^n.
    approx = sqrt_approximation(parse_form("8^n + 2^n"), 0)
    assert approx.source == parse_form("64^n + 4^n")
    assert approx.depth == 2
    assert approx.error_base == 8 * 16
    _, first_hi = _error_row(approx, 2)
    scale_const = first_hi * approx.error_base**2
    for n in range(3, 10):
        _, hi = _error_row(approx, n)
        assert hi < scale_const / approx.error_base**n


# --- certified error tables against the Fraction oracle -------------------


def _as_fractions(bounds):
    return None if bounds is None else [F(num, den) for num, den in bounds]


def _error_row(approx, n, bits=None):
    """The error bounds of row ``n`` of ``error_table``, as Fractions."""
    ((_, err, _),) = error_table(approx, range(n, n + 1), bits)
    return _as_fractions(err)


def _assert_table_matches_oracle(approx, n_range, bits=None):
    """error_table equals the reduced-Fraction interval computation exactly.

    Also its floats: one ``num / den`` per bound is ``float`` of the
    reduced Fraction.  Either both raise the same ValueError, or the rows
    agree; the rows are returned.
    """
    try:
        want = interval_error_table(approx, n_range, bits)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            error_table(approx, n_range, bits)
        return None
    rows = error_table(approx, n_range, bits)
    assert [n for n, _, _ in rows] == list(n_range)
    for (n, err, decay), (_, want_err, want_decay) in zip(rows, want):
        assert all(den > 0 for _, den in err + (decay or ()))
        assert _as_fractions(err) == [want_err.lo, want_err.hi], n
        want_decay = None if want_decay is None else [want_decay.lo, want_decay.hi]
        assert _as_fractions(decay) == want_decay, n
        assert [num / den for num, den in err] == [float(want_err.lo), float(want_err.hi)]
        if decay is not None:
            assert [num / den for num, den in decay] == [float(x) for x in want_decay]
    if rows:
        n = rows[0][0]
        want_err = interval_error(approx, n, bits)
        assert _error_row(approx, n, bits) == [want_err.lo, want_err.hi]
    return rows


@pytest.mark.parametrize("text, j", [
    ("2*4^n + 1", 0), ("2*4^n + 1", 1), ("4^n - 2^n", 0), ("8^n + 2^n", 0),
    ("(7/2)*9^n - (5/3)*4^n + 2", 1), ("3*7^n - 5*5^n + 2*3^n", 1), ("5^n", 0),
])
def test_error_table_equals_fraction_oracle(text, j):
    approx = sqrt_approximation(parse_form(text), j)
    for bits in (None, 1, 2, 4, 8):
        _assert_table_matches_oracle(approx, range(0, 31), bits)
    # With steps other than +1 the powers are not carried, and walked
    # downward den shrinks from row to row.
    _assert_table_matches_oracle(approx, range(1, 31, 3))
    _assert_table_matches_oracle(approx, range(30, -1, -3))


def test_error_table_rows_straddling_zero():
    # At bits <= 8 the two brackets of 2*4^n + 1 overlap at n = 6: the
    # enclosure straddles zero, so lo is 0 and the row has no decay.
    approx = sqrt_approximation(TITLE, 0)
    for bits in (1, 2, 4, 8):
        _, ((lo, _), (hi, _)), decay = _assert_table_matches_oracle(
            approx, range(0, 13), bits)[6]
        assert lo == 0 < hi and decay is None
    # Walked downward at 8 bits, n = 1 is the first row with lo > 0: its
    # decay is bounded below by the straddling row's lo, 0.
    rows = _assert_table_matches_oracle(approx, range(12, -1, -1), 8)
    assert [n for n, ((lo, _), _), _ in rows if lo > 0] == [1, 0]
    assert rows[-2][2][0][0] == 0


def test_error_table_negative_inputs_fail_as_the_oracle_does():
    approx = sqrt_approximation(parse_form("4^n - 3*3^n"), 0)
    with pytest.raises(ValueError, match=r"^source\(0\) = -2 is negative$"):
        error_table(approx, range(0, 6))
    _assert_table_matches_oracle(approx, range(0, 6))
    with pytest.raises(ValueError, match="negative n is not defined"):
        error_table(sqrt_approximation(TITLE, 0), range(-1, 3))
    _assert_table_matches_oracle(sqrt_approximation(TITLE, 0), range(-1, 3))
    single = sqrt_approximation(parse_form("5^n"), 0)
    assert single.is_single_term
    with pytest.raises(ValueError, match="negative n is not defined"):
        error_table(single, range(-2, 2))
    _assert_table_matches_oracle(single, range(-2, 2))


_oracle_terms = st.lists(
    st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=6), st.integers(1, 16)),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(_oracle_terms, st.integers(0, 1), st.integers(-1, 40), st.integers(1, 6))
def test_error_table_equals_fraction_oracle_on_random_forms(raw, j, n0, count):
    f = normalize(raw)
    assume(not f.is_zero and dominant(f)[0] > 0)
    try:
        approx = sqrt_approximation(f, j)
    except ResourceLimitError:
        assume(False)
    for bits in (None, 1, 2, 4, 8):
        _assert_table_matches_oracle(approx, range(n0, n0 + count), bits)


def test_expansion_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        sqrt_approximation(parse_form("-4^n + 1"), 0)
    with pytest.raises(ValueError, match="zero form"):
        sqrt_approximation(ZERO, 0)
    with pytest.raises(ValueError, match="invalid argument"):
        sqrt_approximation(TITLE, 2)
    with pytest.raises(ValueError, match="integer bases"):
        sqrt_approximation(normalize([(1, F(9, 4))]), 0)
    with pytest.raises(ResourceLimitError):
        sqrt_approximation(parse_form("100^n + 99^n"), 0, depth_cap=16)


def test_floor_log_ratio_matches_linear_search():
    def linear(x, base):
        t, power = 0, F(1)
        while power * base <= x:
            power, t = power * base, t + 1
        return t

    for base in (F(2), F(3, 2), F(101, 100)):
        for x in (F(1), base, base**7, base**7 - F(1, 10**30), F(1000), F(10**6, 7)):
            assert expansion._floor_log_ratio(x, base) == linear(x, base), (x, base)


def test_series_of_a_wide_near_one_tail_is_refused():
    # Two tail terms at ratios ~1.06 and ~1.11: ~150 powers of up to ~150
    # big-fraction terms each.  Uncapped it runs for seconds and prints a
    # 10 MB form.
    f = parse_form("(65/8)*9964^n - (165/4)*9000^n - (3/8)*9373^n")
    with pytest.raises(ResourceLimitError, match="term products"):
        sqrt_approximation(f, 0)


def _term_text(coef):
    return str(coef) if coef.denominator == 1 else f"({coef})"


# Texts "c*b^n +- c*b^n ..." with integer bases, a third of them in
# 9000..10000 so that ratios near 1 (deep or wide series) come up often.
_fuzz_coefs = st.fractions(min_value=F(1, 8), max_value=64, max_denominator=8).map(_term_text)
_fuzz_bases = st.one_of(st.integers(1, 16), st.integers(1, 10**4), st.integers(9000, 10**4))
_fuzz_texts = st.builds(
    lambda c, b, rest: f"{c}*{b}^n" + "".join(f" {s} {c}*{b}^n" for s, c, b in rest),
    _fuzz_coefs, _fuzz_bases,
    st.lists(st.tuples(st.sampled_from("+-"), _fuzz_coefs, _fuzz_bases), max_size=3),
)


@settings(max_examples=80, deadline=timedelta(seconds=3))
@given(_fuzz_texts, st.integers(min_value=0, max_value=1))
def test_fuzz_forms_answer_or_hit_a_cap_in_time(text, j):
    f = parse_form(text)
    assume(not f.is_zero and dominant(f)[0] > 0)
    for run in (lambda: decide_hypothesis(f), lambda: sqrt_approximation(f, j)):
        try:
            run()
        except ResourceLimitError:
            pass


# --- trivial criterion ------------------------------------------------------


def test_trivial_criterion():
    assert trivial_criterion(TITLE)  # a1 = 2, a1*b1 = 8
    assert not trivial_criterion(parse_form("4^n + 1"))  # a1 = 1 is square
    assert not trivial_criterion(parse_form("9^n + 2*3^n + 1"))


# --- hypothesis decision ----------------------------------------------------


def _assert_witness_exact(f, witness):
    composed = compose_affine(f, witness.parity)
    rebuilt = add(mul(witness.root, witness.root), witness.remainder)
    assert rebuilt == composed
    if not witness.remainder.is_zero:
        b1 = dominant(f)[1]
        assert dominant(witness.remainder)[1] < b1
        assert growth_exponent(witness.remainder, composed) < F(1, 2)
    else:
        assert witness.remainder_exponent == float("-inf")


def test_decide_even_exponent_family():
    report = decide_hypothesis(parse_form("4^n + 1"))
    assert report.verdict == FAILS
    by_parity = {w.parity: w for w in report.witnesses}
    assert by_parity[0].root == parse_form("4^n")
    assert by_parity[0].remainder == constant(1)
    assert by_parity[1].root == parse_form("2*4^n")
    assert by_parity[1].remainder == constant(1)
    for w in report.witnesses:
        _assert_witness_exact(parse_form("4^n + 1"), w)


def test_decide_perfect_square_family():
    f = parse_form("9^n + 2*3^n + 1")
    report = decide_hypothesis(f)
    assert report.verdict == FAILS
    by_parity = {w.parity: w for w in report.witnesses}
    assert by_parity[0].root == parse_form("9^n + 1")
    assert by_parity[0].remainder.is_zero
    for w in report.witnesses:
        _assert_witness_exact(f, w)


def test_decide_title_family_holds():
    report = decide_hypothesis(TITLE)
    assert report.verdict == HOLDS_TRIVIALLY
    assert report.holds
    assert not report.witnesses


def test_decide_holds_beyond_trivial_criterion():
    # a1 = 1 is a square, so the quick test is silent, yet every kept
    # root term has a non-integer base (powers of 9/16 against lead 4).
    f = parse_form("4^n + 3^n")
    assert not trivial_criterion(f)
    report = decide_hypothesis(f)
    assert report.verdict == HOLDS
    assert not report.witnesses


def test_decide_three_term_family():
    f = parse_form("4^n + 2^n + 1")
    report = decide_hypothesis(f)
    assert report.verdict == FAILS
    by_parity = {w.parity: w for w in report.witnesses}
    assert by_parity[0].root == parse_form("4^n + 1/2")
    assert by_parity[0].remainder == constant(F(3, 4))
    assert growth_exponent(by_parity[0].remainder, compose_affine(f, 0)) == 0
    for w in report.witnesses:
        _assert_witness_exact(f, w)


def test_decide_requires_integer_bases():
    with pytest.raises(ValueError, match="integer bases"):
        decide_hypothesis(normalize([(2, F(9, 4))]))


def test_trivial_criterion_implies_decide_holds():
    for text in ("2*4^n + 1", "3*9^n + 1", "2*4^n + 3*2^n", "5*25^n + 2"):
        f = parse_form(text)
        if trivial_criterion(f):
            assert decide_hypothesis(f).holds


_small_coefs = st.integers(min_value=-5, max_value=5)
_int_bases = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_small_coefs, _int_bases), min_size=1, max_size=3))
def test_decide_hypothesis_consistency(raw):
    f = normalize(raw)
    if f.is_zero or dominant(f)[0] <= 0:
        return
    report = decide_hypothesis(f)
    assert report.verdict in (HOLDS, FAILS, HOLDS_TRIVIALLY)
    assert (report.verdict == FAILS) == bool(report.witnesses)
    for w in report.witnesses:
        composed = compose_affine(f, w.parity)
        assert add(mul(w.root, w.root), w.remainder) == composed
        assert all(b.denominator == 1 for _, b in w.root.terms)
        if not w.remainder.is_zero:
            assert dominant(w.remainder)[1] ** 2 < dominant(composed)[1]
    if report.verdict == HOLDS_TRIVIALLY:
        assert trivial_criterion(f)
    if trivial_criterion(f):
        assert report.holds


def _long_division_root(F):
    """Formal square root of ``F`` down to base 1, by long division.

    Independent of the binomial series: each root term cancels the
    leading term of the remainder ``F - root**2``.  The answer equals the
    full series' one, since a single kept non-integer base already rules
    the candidate out.
    """
    c1, B1 = F.terms[0]
    a, r = sqrt_rational(c1), sqrt_rational(B1)
    if a is None or r is None:
        return None
    root = normalize([(a, r)])
    rem = add(F, scale(mul(root, root), -1))
    while not rem.is_zero and rem.terms[0][1] >= r:
        c, B = rem.terms[0]
        if (B / r).denominator != 1:
            return None
        term = normalize([(c / (2 * a), B / r)])
        rem = add(rem, scale(add(scale(mul(root, term), 2), mul(term, term)), -1))
        root = add(root, term)
    return root


def test_decide_matches_long_division_root_on_grid(monkeypatch):
    forms = [
        normalize([(c1, b1), (c2, b2)])
        for b1, b2 in itertools.combinations(range(40, 0, -1), 2)
        for c1, c2 in ((1, 1), (4, -3), (2, 1))
    ]
    bases = (40, 36, 32, 27, 25, 18, 16, 12, 9, 8, 6, 4, 3, 2, 1)
    forms += [
        normalize([(1, b1), (2, b2), (-1, b3)])
        for b1, b2, b3 in itertools.combinations(bases, 3)
    ]
    got = [decide_hypothesis(f) for f in forms]
    monkeypatch.setattr(expansion, "_extract_root", _long_division_root)
    assert got == [decide_hypothesis(f) for f in forms]
    assert {report.verdict for report in got} == {FAILS, HOLDS, HOLDS_TRIVIALLY}


# --- growth exponents -------------------------------------------------------


def test_growth_exponent_examples():
    f = parse_form("16^n + 1")
    assert growth_exponent(constant(1), f) == 0
    assert growth_exponent(parse_form("3*4^n"), parse_form("2*16^n + 1")) == F(1, 2)
    assert growth_exponent(constant(F(3, 4)), parse_form("16^n + 4^n + 1")) == 0
    assert growth_exponent(ZERO, f) == float("-inf")


def test_growth_exponent_exactness_types():
    got = growth_exponent(parse_form("8^n"), parse_form("4^n + 1"))
    assert got == F(3, 2) and isinstance(got, Fraction)
    got = growth_exponent(parse_form("3^n"), parse_form("2^n"))
    assert isinstance(got, float) and 1.5 < got < 1.7
    # Dependent bases past any factoring range: 2^40 against 2^30 and 4.
    got = growth_exponent(parse_form(f"{2**40}^n"), parse_form(f"{2**30}^n"))
    assert got == F(4, 3) and isinstance(got, Fraction)
    got = growth_exponent(parse_form("4^n"), parse_form(f"{2**40}^n + 1"))
    assert got == F(1, 20) and isinstance(got, Fraction)
    # Independent bases, one with a large prime factor and two near the
    # float limit: the float, at once.
    g, f = parse_form("4^n"), parse_form(f"{999983**2}^n")
    big_g, big_f = parse_form(f"{3**599}^n"), parse_form(f"{2**1020 + 1}^n")
    start = time.perf_counter()
    for _ in range(10):
        got, big = growth_exponent(g, f), growth_exponent(big_g, big_f)
    assert time.perf_counter() - start < 0.1
    assert got == math.log(4) / math.log(999983**2) and isinstance(got, float)
    assert big == math.log(float(3**599)) / math.log(float(2**1020 + 1))
    assert isinstance(big, float)


def test_growth_exponent_requires_growing_reference():
    with pytest.raises(ValueError, match="dominant base > 1"):
        growth_exponent(constant(1), constant(2))
