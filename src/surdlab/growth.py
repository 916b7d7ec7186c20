"""Empirical growth experiments around Pell-type equations.

The interesting constants in this area are provably existent but not
computable, so the experiments report exact integers plus measured
slopes: minimal solutions of |X**2 - D*Y**2| < C along a family D = f(n),
exact denominators of f(n)/b**n, and partial-quotient profiles of
sqrt(f(n)).

A minimal solution needs only half a period: the small-integer walk stops
at the first small value or at the palindrome midpoint, and the answering
convergent is built once.  The bounded scan and the profiles report every
convergent in their box, so they still go step by step.  A row whose
f(n) has no period is skipped with the note of ``surd._radicand``.  Bad
input, and a profile bound exp(c*n) past the digit budget, are refused
before the first row.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .forms import PowerSumForm, _check_n, classify, eval_exact
from .surd import (
    DEFAULT_DIGIT_BUDGET,
    PellSolution,
    ResourceLimitError,
    _checked,
    _least_convergent_below,
    _radicand,
    _y_max,
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
    D: int, C: int, y_limit: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> PellScan:
    """All (X, Y) with |X**2 - D*Y**2| < C and Y within the search box.

    The box bounds Y by ``y_limit`` and by the digit budget.  C or
    ``y_limit`` below 1 raises ValueError.  The scan is complete
    (provably finds every solution) only when C <= sqrt(D); for larger C
    the result still comes back but flagged incomplete.

    Solutions in lowest terms are convergents of sqrt(D) (classical, for
    C <= sqrt(D)); non-coprime solutions are integer multiples g*(p, q)
    of convergents with g**2 * |value| < C, so both kinds are emitted.
    Sorted by Y ascending.  Every returned solution is re-verified
    against its defining equation.
    """
    _check_box(C, y_limit)
    y_max = _y_max(digit_budget, y_limit)
    out: list[PellSolution] = []
    for _, p, q, value, _ in pell_value_stream(D):
        if q > y_max:
            break
        g = 1
        while g * g * abs(value) <= C - 1 and g * q <= y_max:
            out.append(_checked(D, g * p, g * q, g * g * value))
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

    Values of n where sqrt(f(n)) has no period are skipped with the note
    "non-integer", "non-positive" or "square" (nothing to measure there),
    and n below 0 raises ValueError.
    The least-squares slope of log(Y_min) over n is the empirical growth
    rate.  The square-decomposition hypothesis is decided for ``f`` and
    the report attached; when it fails the records are still reported.
    """
    _check_box(C, y_limit)
    report = decide_hypothesis(f)
    y_max = _y_max(digit_budget, y_limit)
    records: list[MinSolutionRecord] = []
    skipped: list[tuple[int, str]] = []
    for n in n_range:
        D, a0, note = _radicand(eval_exact(f, n))
        # The first convergent hit is the least Y overall: multiples of
        # earlier convergents scale the value by g**2 >= 4.
        best = None if note else _least_convergent_below(D, a0, C, y_max)
        if best is None:
            skipped.append((n, note or "cap"))
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


# One row of ``partial_quotient_profile``.  ``max_partial_quotient`` is the
# largest partial quotient consumed while convergent denominators stayed
# below exp(c*n); ``effective_exponents`` are the measured values of
# log(1/|sqrt(D) - p/q|)/log(q) over that prefix.
PartialQuotientProfile = namedtuple(
    "PartialQuotientProfile",
    "n D prefix_length max_partial_quotient effective_exponents")


def partial_quotient_profile(
    f: PowerSumForm, n_range: range, c: float
) -> tuple[list[PartialQuotientProfile], list[tuple[int, str]]]:
    """Profile sqrt(f(n)) while convergent denominators stay below exp(c*n).

    Returns the rows and the skipped ``(n, note)`` pairs of the range; a
    row where sqrt(f(n)) has no period is skipped with the note
    "non-integer", "non-positive" or "square".  Purely observational: the
    exponents are floats derived from exact integers, with
    |sqrt(D) - p/q| = |p**2 - D*q**2| / (q*(sqrt(D)*q + p)).

    Refused before any row: a c that is not finite and positive or an n
    below 0 raises ValueError, and an exp(c*n) of more than
    ``DEFAULT_DIGIT_BUDGET`` digits at the last n raises
    ``ResourceLimitError``.  Below that each walk is bounded:
    q_j >= phi**(j - 1) stops it within about 2.08*c*n steps.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"invalid c={c}: must be {'finite' if c > 0 else 'positive'}")
    _check_n(n_range.start)
    if n_range and c * n_range[-1] > DEFAULT_DIGIT_BUDGET * math.log(10):
        raise ResourceLimitError(f"exp({c}*{n_range[-1]}) has over {DEFAULT_DIGIT_BUDGET} "
                                 "digits (the digit budget)")
    rows, skipped = [], []
    for n in n_range:
        D, a0, note = _radicand(eval_exact(f, n))
        if note:
            skipped.append((n, note))
            continue
        max_a, exponents = 0, []
        for steps, p, q, value, a in pell_value_stream(D):
            if not math.log(q) < c * n:
                break
            max_a = max(max_a, a)
            if q > 1:
                err_log = math.log(abs(value)) - math.log(q) - math.log(a0 * q + p)
                exponents.append(-err_log / math.log(q))
        rows.append(PartialQuotientProfile(n, D, steps, max_a, tuple(exponents)))
    return rows, skipped
