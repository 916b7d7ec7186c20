"""Independent oracles shared by the test modules."""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice

from surdlab.forms import PowerSumForm, add, dominant, eval_exact, mul, normalize, scale
from surdlab.intervals import Interval, sqrt_interval
from surdlab.surd import PellSolution


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    s = math.isqrt(n)
    return s * s == n


def brute_force_pell(D: int, C: int, y_limit: int) -> list[PellSolution]:
    """Direct enumeration of |X**2 - D*Y**2| < C over 1 <= Y <= y_limit."""
    out = []
    for Y in range(1, y_limit + 1):
        target = D * Y * Y
        lo = math.isqrt(max(target - C, 0))
        hi = math.isqrt(target + C) + 1
        for X in range(max(lo, 1), hi + 1):
            v = X * X - target
            if abs(v) < C:
                out.append(PellSolution(X, Y, v))
    out.sort(key=lambda s: (s.Y, s.X))
    return out


def plain_states(D: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(a_k, P_k, Q_k)`` of sqrt(D) for k = 0, 1, 2, ... forever.

    sqrt(D) = [a0; a1, ..., a_{k-1}, (P_k + sqrt(D))/Q_k], walked with the
    classical step P_{k+1} = a_k*Q_k - P_k, Q_{k+1} = (D - P_{k+1}**2) / Q_k,
    which squares and divides where surdlab's step does neither.
    """
    a0 = math.isqrt(D)
    P, Q, a = 0, 1, a0
    while True:
        yield a, P, Q
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q


def plain_period(D: int) -> tuple[list[int], list[int]]:
    """Period word a_1..a_r of sqrt(D) and Q_0..Q_r, independent of surdlab.

    Walks the whole period with the classical step of ``plain_states`` and
    stops at the first Q == 1, so it shares neither its step nor its stop
    rule with the midpoint walk.
    """
    word, dens = [], [1]
    for a, _, Q in islice(plain_states(D), 1, None):
        word.append(a)
        dens.append(Q)
        if Q == 1:
            return word, dens


def plain_period_word(D: int) -> list[int]:
    """Period word a_1..a_r of sqrt(D) from ``plain_period``."""
    return plain_period(D)[0]


def plain_midpoint_walk(D: int, keep: int, below: int, period=None
                        ) -> tuple[int | None, list[int] | None, int]:
    """What ``surd._midpoint_walk(D, a0, keep, below)`` returns, from a full period.

    Takes the whole period from ``plain_period`` (or ``period``, its
    result for D) and applies the walk's documented outcomes in its order
    of steps: a Q_j < ``below`` at some j <= h = r // 2 first, then, with
    ``below``, giving up after step keep // 2 + 1, and otherwise the
    midpoint, where the word's first half is kept iff r <= ``keep``.
    """
    word, dens = period or plain_period(D)
    r, h, h_keep = len(word), len(word) // 2, keep // 2
    for j in range(1, min(h, h_keep + 1) + 1):
        if dens[j] < below:
            return None, word[:j - 1], dens[j]
    if below and h > h_keep:
        return None, None, dens[h_keep + 1]
    return r, word[:h] if r <= keep else None, dens[h]


def fraction_keyed_normalize(raw_terms) -> PowerSumForm:
    """The canonical form of raw terms, merged on ``Fraction`` bases.

    The plain reading of ``forms.normalize``: every spelling of a number
    becomes one ``Fraction``, equal ones merge, zero sums drop out, and the
    checking constructor sees the bases in descending order.
    """
    merged: dict[Fraction, Fraction] = {}
    for coef, base in raw_terms:
        merged[Fraction(base)] = merged.get(Fraction(base), 0) + Fraction(coef)
    return PowerSumForm((merged[base], base) for base in sorted(merged, reverse=True)
                        if merged[base])


def per_term_eval(f, n: int) -> Fraction:
    """``f(n)`` as a sum of one reduced Fraction per term."""
    return sum((coef * base**n for coef, base in f), Fraction(0))


def plain_min_solution(D: int, C: int, y_limit: int | None, bits_cap: int
                       ) -> PellSolution | None:
    """Least-Y convergent with |p**2 - D*q**2| < C, built step by step.

    The plain search: every convergent p_j/q_j is built in turn, and the
    loop gives up (None) at the first q_j over ``y_limit`` or over
    ``bits_cap`` bits, before testing its value.  The value comes from the classical
    step, p_j**2 - D*q_j**2 = (-1)**(j+1) * Q_{j+1}, and is checked
    directly at the hit.
    """
    a0 = math.isqrt(D)
    P, Q, a = 0, 1, a0
    p, p_prev, q, q_prev = a0, 1, 1, 0
    sign = -1
    while True:
        if (y_limit is not None and q > y_limit) or q.bit_length() > bits_cap:
            return None
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q
        if Q < C:
            assert p * p - D * q * q == sign * Q
            return PellSolution(p, q, sign * Q)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        sign = -sign


def lead_base(approx):
    """The leading base ``B`` of ``approx.source``."""
    return dominant(approx.source)[1]


def algebraic_residual(approx):
    """Exact defect ``B**((2k-1)n) * source - lead * series**2`` as a form.

    Its dominant base is strictly below ``B**(2k-1) * B``, which is the
    exact-form counterpart of the squared error bound.
    """
    base = lead_base(approx)
    k = approx.depth
    lhs = mul(normalize([(1, base ** (2 * k - 1))]), approx.source)
    rhs = scale(mul(approx.series_form, approx.series_form), approx.lead_coefficient)
    return add(lhs, scale(rhs, -1))


def interval_approx_value(approx, n: int, bits: int) -> Interval:
    """Enclosure of ``sqrt(lead*B**n) * f1(n) / B**(k*n)`` in reduced Fractions."""
    lead, base = approx.lead_coefficient, lead_base(approx)
    root = sqrt_interval(lead * base**n, bits)
    if approx.is_single_term:
        return root
    factor = eval_exact(approx.series_form, n) / base ** (approx.depth * n)
    return root.scale(factor)


def interval_error(approx, n: int, bits: int | None = None) -> Interval:
    """Enclosure of ``|sqrt(source(n)) - approximation(n)|`` in reduced Fractions.

    The same brackets and the same ``bits`` rule as ``expansion.error_table``,
    computed independently of its integer kernel: every endpoint is a
    reduced Fraction and every step an ``Interval`` operation.
    """
    value = eval_exact(approx.source, n)  # refuses negative n
    if approx.is_single_term:
        return Interval(Fraction(0), Fraction(0))
    if bits is None:  # each log apart, so that bases past the float range stay finite
        base = approx.error_base
        bits = max(96, int(n * (math.log2(base.numerator) - math.log2(base.denominator))) + 96)
    if value < 0:
        raise ValueError(f"source({n}) = {value} is negative")
    return abs(sqrt_interval(value, bits) - interval_approx_value(approx, n, bits))


def interval_error_table(approx, n_range: range, bits: int | None = None
                         ) -> list[tuple[int, Interval, Interval | None]]:
    """Rows ``(n, error, decay)`` of ``interval_error``, decay = previous / this."""
    rows = []
    prev = None
    for n in n_range:
        err = interval_error(approx, n, bits)
        rows.append((n, err, prev / err if prev is not None and err.lo > 0 else None))
        prev = err
    return rows
