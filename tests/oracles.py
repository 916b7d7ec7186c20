"""Independent oracles shared by the test modules."""

from __future__ import annotations

import math
from fractions import Fraction

from surdlab.forms import add, dominant, eval_exact, monomial, mul, scale
from surdlab.intervals import Interval, sqrt_interval
from surdlab.surd import PellSolution


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


def plain_period_word(D: int) -> list[int]:
    """Period word a_1..a_r of sqrt(D), independent of surdlab.

    Walks the whole period with the classical step
    Q_{k+1} = (D - P_{k+1}**2) / Q_k and stops at the first Q == 1, so it
    shares neither its step nor its stop rule with the midpoint walk.
    """
    a0 = math.isqrt(D)
    P, Q, a = 0, 1, a0
    word = []
    while True:
        P = a * Q - P
        Q = (D - P * P) // Q
        a = (a0 + P) // Q
        word.append(a)
        if Q == 1:
            return word


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
    lhs = mul(monomial(1, base ** (2 * k - 1)), approx.source)
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
    if bits is None:
        bits = max(96, int(n * math.log2(float(approx.error_base))) + 96)
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
