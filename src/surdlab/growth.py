"""Empirical growth experiments around Pell-type equations.

The interesting constants in this area are provably existent but not
computable, so the experiments report exact integers plus measured
slopes: minimal solutions of |X**2 - D*Y**2| < C along a family D = f(n),
exact denominators of f(n)/b**n, and partial-quotient profiles of
sqrt(f(n)).

A minimal solution needs only half a period: the small-integer walk stops
at the first small value or at the palindrome midpoint, and the answering
convergent is built once.  The bounded scan and the profiles report every
convergent in their box, so they still go step by step.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .forms import PowerSumForm, classify, eval_exact, eval_int
from .surd import (
    DEFAULT_DIGIT_BUDGET,
    PellSolution,
    ResourceLimitError,
    _digit_budget_bits,
    _least_convergent_below,
    is_perfect_square,
    pell_value_stream,
)
from .expansion import decide_hypothesis


def _check_box(C: int, y_limit: int | None) -> None:
    if C < 1:
        raise ValueError("C must be a positive integer")
    if y_limit is not None and y_limit < 1:
        raise ValueError("y_limit must be positive")


PellScan = namedtuple("PellScan", "solutions complete")


def bounded_pell_solutions(
    D: int, C: int, y_limit: int | None = None, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> PellScan:
    """All (X, Y) with |X**2 - D*Y**2| < C and Y within the search box.

    The box bounds Y by ``y_limit`` (None: by the digit budget alone).  C
    or ``y_limit`` below 1 raises ValueError.  The scan is complete
    (provably finds every solution) only when C <= sqrt(D); for larger C
    the result still comes back but flagged incomplete.

    Solutions in lowest terms are convergents of sqrt(D) (classical, for
    C <= sqrt(D)); non-coprime solutions are integer multiples g*(p, q)
    of convergents with g**2 * |value| < C, so both kinds are emitted.
    Sorted by Y ascending.  Every returned solution is re-verified
    against its defining equation.
    """
    _check_box(C, y_limit)
    bits_cap = _digit_budget_bits(digit_budget)

    def past_cap(y: int) -> bool:
        return (y_limit is not None and y > y_limit) or y.bit_length() > bits_cap

    out: list[PellSolution] = []
    for _, p, q, value, _ in pell_value_stream(D):
        if past_cap(q):
            break
        g = 1
        while g * g * abs(value) <= C - 1 and not past_cap(g * q):
            X, Y, v = g * p, g * q, g * g * value
            if X * X - D * Y * Y != v:
                raise AssertionError("pell value identity violated")
            out.append(PellSolution(X, Y, v))
            g += 1
    out.sort(key=lambda s: s.Y)
    return PellScan(tuple(out), C * C <= D)


def least_squares_slope(points: list[tuple[int, float]]) -> float | None:
    if len(points) < 2:
        return None
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    den = sum((x - xbar) ** 2 for x, _ in points)
    if den == 0:
        return None
    return sum((x - xbar) * (y - ybar) for x, y in points) / den


# One row of ``min_solution_growth``: the least solution of
# |X**2 - D*Y**2| < C for D = f(n), its value X**2 - D*Y**2 and log(Y).
MinSolutionRecord = namedtuple("MinSolutionRecord", "n D X Y value log_Y")

MinSolutionGrowth = namedtuple("MinSolutionGrowth", "records skipped slope hypothesis")


def min_solution_growth(
    f: PowerSumForm,
    C: int,
    n_range: range,
    y_limit: int | None = None,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> MinSolutionGrowth:
    """Least Y with |X**2 - f(n)*Y**2| < C, for each n in the range.

    Each row walks half a period at most and builds one convergent
    (``surd._least_convergent_below``).  A row whose least Y is over
    ``y_limit`` or the digit budget is skipped with the note "cap", and so
    is every row for C = 1.  C or ``y_limit`` below 1 raises ValueError.

    Values of n where f(n) is a perfect square are skipped with a note
    (the square root is rational there, so there is nothing to measure).
    The least-squares slope of log(Y_min) over n is the empirical growth
    rate.  The square-decomposition hypothesis is decided for ``f`` and
    the report attached; when it fails the records are still reported.
    """
    _check_box(C, y_limit)
    report = decide_hypothesis(f)
    # Y is within the y-limit and the digit budget iff Y <= y_max.
    y_max = (1 << _digit_budget_bits(digit_budget)) - 1
    if y_limit is not None:
        y_max = min(y_max, y_limit)
    records: list[MinSolutionRecord] = []
    skipped: list[tuple[int, str]] = []
    for n in n_range:
        try:
            D = eval_int(f, n)
        except ValueError:
            skipped.append((n, "non-integer"))
            continue
        if D <= 0:
            skipped.append((n, "non-positive"))
            continue
        if is_perfect_square(D):
            skipped.append((n, "square"))
            continue
        # The first convergent hit is the least Y overall: multiples of
        # earlier convergents scale the value by g**2 >= 4.
        best = _least_convergent_below(D, C, y_max)
        if best is None:
            skipped.append((n, "cap"))
            continue
        records.append(MinSolutionRecord(n, D, best.X, best.Y, best.value, math.log(best.Y)))
    slope = least_squares_slope([(rec.n, rec.log_Y) for rec in records])
    return MinSolutionGrowth(tuple(records), tuple(skipped), slope, report)


# One row of ``denominator_growth``: the exact denominator of f(n)/b**n,
# its log, and whether it is flagged as below exp(n*ln(2)/2).
DenominatorRecord = namedtuple("DenominatorRecord",
                               "n denominator log_denominator flagged")


def denominator_growth(
    f: PowerSumForm, b: int, n_range: range
) -> list[DenominatorRecord]:
    """Exact denominator of f(n)/b**n per n, in lowest terms.

    A record is flagged when the denominator is below exp(n*ln(2)/2);
    the comparison is done as ``denominator**2 < 2**n``, which is exact.
    Unless b divides every base of f, only finitely many n are flagged.
    """
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"invalid b={b}: need an integer >= 2")
    if not classify(f).integral_coefficients:
        raise ValueError("denominator growth requires integer coefficients and bases")
    out = []
    for n in n_range:
        den = (eval_exact(f, n) / Fraction(b) ** n).denominator
        out.append(DenominatorRecord(n, den, math.log(den), den * den < 2**n))
    return out


# Observational profile of the first convergents of sqrt(f(n)).
# ``max_partial_quotient`` is the largest partial quotient consumed while
# convergent denominators stayed below exp(c*n); ``effective_exponents`` are
# the measured values of log(1/|sqrt(D) - p/q|)/log(q) over that prefix.
PartialQuotientProfile = namedtuple(
    "PartialQuotientProfile",
    "n D prefix_length max_partial_quotient effective_exponents")


def partial_quotient_profile(
    f: PowerSumForm, n: int, c: float
) -> PartialQuotientProfile | None:
    """Profile sqrt(f(n)) while convergent denominators stay below exp(c*n).

    Returns None when f(n) is a perfect square (skipped).  Purely
    observational: the exponents are floats derived from exact integers,
    with |sqrt(D) - p/q| = |p**2 - D*q**2| / (q*(sqrt(D)*q + p)).

    Raises ``ResourceLimitError`` before the walk when exp(c*n) has more
    than ``DEFAULT_DIGIT_BUDGET`` digits.  Below that the walk is bounded:
    q_j >= phi**(j - 1) stops it within about 2.08*c*n steps.
    """
    if not c > 0:
        raise ValueError(f"invalid c={c}: must be positive")
    D = eval_int(f, n)
    if D <= 0:
        raise ValueError(f"f({n}) = {D} is not positive")
    if is_perfect_square(D):
        return None
    bound = c * n
    if bound > DEFAULT_DIGIT_BUDGET * math.log(10):
        raise ResourceLimitError(
            f"exp({c}*{n}) has over {DEFAULT_DIGIT_BUDGET} digits (the digit budget)"
        )
    a0 = math.isqrt(D)
    max_a = 0
    exponents: list[float] = []
    for steps, p, q, value, a in pell_value_stream(D):
        if not math.log(q) < bound:
            break
        max_a = max(max_a, a)
        if q > 1:
            err_log = math.log(abs(value)) - math.log(q) - math.log(a0 * q + p)
            exponents.append(-err_log / math.log(q))
    return PartialQuotientProfile(n, D, steps, max_a, tuple(exponents))
