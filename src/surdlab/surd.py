"""Streaming continued fractions of sqrt(D) with exact integer arithmetic.

The surd recurrence
    m' = d*a - m,   d' = d_prev + a*(m - m'),   a' = (a0 + m')//d'
runs with O(1) retained state, starting from m = 0, d = 1, a = a0 and
d_prev = D.  Its d' is the classical (D - m'*m')/d in the division-free
form used by SQUFOF (Gower & Wagstaff, "Square form factorization",
Math. Comp. 2008): no square, no division, and past the first step no
read of D, so m and d stay below 2*sqrt(D).  For a non-square D the
expansion is [a0; {a1, ..., a_{r-1}, 2*a0}], and a1 ... a_{r-1} is a
palindrome.  With P = a0 + m the same step is the P-form
    a = P//d,   P' = 2*a0 - P % d,   d' = d_prev + a*(P - P'),
which finds a where it is used and needs no a0 + m per step.

No other module runs the recurrence, and here only ``cf_stream`` (the
m-form, as it yields m) and ``_midpoint_walk`` (the P-form, one step per
turn while the half word is kept, two steps per turn after) run it;
``pell_value_stream`` reads ``cf_stream`` and adds the convergents.
``_midpoint_walk`` walks to the palindrome midpoint of the period, which
fixes r and the whole word (``cf_sqrt``, ``period_length`` and family
rows), or stops earlier at the least Y of |X**2 - D*Y**2| < C
(``_least_convergent_below``, behind the minimal-Y family scan and
``fundamental_pell``, the case C = 2), or once the answer is surely over
its bound on Y.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import count

DEFAULT_WORD_CAP = 10**6
DEFAULT_DIGIT_BUDGET = 10**5


class SquareInputError(ValueError):
    """The input D is a perfect square, so sqrt(D) has no period."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (such as the digit budget) was hit."""


def _digit_budget_bits(digit_budget: int) -> int:
    """Bit length past which an integer surely exceeds ``digit_budget`` digits."""
    return int(digit_budget * math.log2(10)) + 1


def _y_max(digit_budget: int, y_limit: int | None = None) -> int:
    """Largest Y allowed by the digit budget and, if given, by ``y_limit``."""
    y_max = (1 << _digit_budget_bits(digit_budget)) - 1
    return y_max if y_limit is None else min(y_max, y_limit)


def _radicand(value) -> tuple[int | None, int | None, str]:
    """``(D, a0, note)`` for an exact value f(n), a Fraction or an int.

    The one rule for which D has a period, with one isqrt: the note says
    why sqrt(D) has none, "non-integer" (D is None), "non-positive" or
    "square", and is "" when it has one; only then is a0 = isqrt(D) given.
    """
    if value.denominator != 1:
        return None, None, "non-integer"
    D = value.numerator
    if D <= 0:
        return D, None, "non-positive"
    a0 = math.isqrt(D)
    return D, a0, "square" if a0 * a0 == D else ""


def _check_surd(D: int) -> int:
    if not isinstance(D, int) or isinstance(D, bool):
        raise TypeError("D must be an integer")
    _, a0, note = _radicand(D)
    if note == "non-positive":
        raise ValueError(f"invalid D={D}: must be positive")
    if note:
        raise SquareInputError(f"D={D} is a perfect square")
    return a0


# Expansion of sqrt(D): a0 plus the periodic word of length r.  ``period``
# is None when the word was elided by a cap; ``r`` is exact either way.
CFExpansion = namedtuple("CFExpansion", "D a0 period r")

PellSolution = namedtuple("PellSolution", "X Y value")


def cf_stream(D: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(a_k, m_k, d_k, k)`` for k = 0, 1, 2, ... forever.

    At step k, sqrt(D) = [a0; a1, ..., a_{k-1}, (m_k + sqrt(D))/d_k].
    """
    a0 = _check_surd(D)
    m, d, d_prev, a = 0, 1, D, a0
    for k in count():
        yield a, m, d, k
        m, m_prev = d * a - m, m
        d, d_prev = d_prev + a * (m_prev - m), d
        a = (a0 + m) // d


def _midpoint_walk(D: int, a0: int, keep: int = 0, below: int = 0
                   ) -> tuple[int | None, list[int] | None, int]:
    """Walk sqrt(D), a0 = isqrt(D), to the palindrome midpoint of its period.

    Returns ``(r, half, d)`` with ``half = [a_1, ..., a_h]``,
    h = r // 2, which fixes the whole word: a_k == a_{r-k} for 0 < k < r,
    and ``d = d_h``.  The midpoint is the first k >= 1 with
    P_{k+1} == P_k (r = 2k) or the first k >= 0 with d_{k+1} == d_k
    (r = 2k + 1; k = 0 is r = 1); P_1 = 2*a0 > P_0 makes k = 0 safe in
    the first test.  ``half`` is kept iff r <= ``keep`` and is None
    otherwise, so it never holds more than keep // 2 quotients.

    With ``below`` the walk stops early, with r = None: at the first
    k >= 1 with d_k < ``below``, returning ``half = [a_1, ..., a_{k-1}]``
    and ``d = d_k``, or with ``half = None`` once the half would hold more
    than keep // 2 quotients, so it walks at most keep // 2 + 1 steps.

    The one function with the P-form step.  While the half is kept it
    runs one step per turn, bounded by ``range``, and applies ``below``.
    Past keep // 2 + 1 steps (step 1 for ``period_length``) it drops the
    half and runs two steps per turn with the midpoint tests alone, the
    second step with d and e (d_prev) in swapped roles, so each step
    adds to one denominator in place and no state is rotated.
    """
    c = 2 * a0
    P, d, e, a = a0, 1, D, a0
    half: list[int] = []
    for k in range(keep // 2 + 1):
        # Step k; a = a_k = P_k // d_k, so P_{k+1} = 2*a0 - P % d.
        Q = c - P + a * d
        if Q == P:
            r = 2 * k
            break
        e += a * (P - Q)
        if e == d:
            r = 2 * k + 1
            break
        # r >= 2k + 2 from here on; (P, d, e) becomes the state of step k + 1.
        P, d, e = Q, e, d
        if d < below:
            return None, half, d
        a = P // d
        half.append(a)
    else:
        if below:
            return None, None, d
        k += 1
        while True:
            a = P // d
            Q = c - P % d
            if Q == P:
                return 2 * k, None, d
            e += a * (P - Q)
            if e == d:
                return 2 * k + 1, None, d
            a = Q // e
            P = c - Q % e
            if P == Q:
                return 2 * k + 2, None, e
            d += a * (Q - P)
            if d == e:
                return 2 * k + 3, None, e
            k += 2
    return r, half if r <= keep else None, d


def cf_sqrt(D: int, word_cap: int = DEFAULT_WORD_CAP) -> CFExpansion:
    """Expand sqrt(D): a0, the period word and its length r.

    The word is mirrored from the half walked to the palindrome midpoint.
    If the period exceeds ``word_cap`` the word is elided but r stays
    exact; that is not an error.
    """
    if word_cap < 1:
        raise ValueError("word_cap must be positive")
    a0 = _check_surd(D)
    r, half, _ = _midpoint_walk(D, a0, word_cap)
    if half is None:
        return CFExpansion(D, a0, None, r)
    # Odd r repeats the middle quotient a_h = a_{h+1}; even r does not.
    mirror = half[::-1] if r % 2 else half[-2::-1]
    return CFExpansion(D, a0, (*half, *mirror, 2 * a0), r)


def period_length(D: int) -> int:
    """Length r of the period of sqrt(D), with O(1) memory."""
    return _midpoint_walk(D, _check_surd(D))[0]


def period_bound_ratio(D: int, r: int) -> float:
    """Observed ratio r / (sqrt(D) * ln(D)) of the period length r of sqrt(D)."""
    try:
        return r / (math.sqrt(D) * math.log(D))
    except OverflowError:  # D past the float range
        return r / math.isqrt(D) / math.log(D)


def pell_value_stream(D: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield ``(j, p_j, q_j, p_j**2 - D*q_j**2, a_{j+1})`` for j = 0, 1, 2, ...

    ``cf_stream`` plus the convergents: the value comes from the surd
    recurrence identity ``p_j**2 - D*q_j**2 = (-1)**(j+1) * d_{j+1}``,
    avoiding a large squaring per step; ``a_{j+1}`` is the partial
    quotient that builds the next convergent.  Callers that return
    solutions re-verify them directly.
    """
    steps = cf_stream(D)
    p, pm1, q, qm1 = next(steps)[0], 1, 1, 0
    for a, _, d, k in steps:
        yield k - 1, p, q, (-d if k % 2 else d), a
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q


def _word_matrix(word: list[int], lo: int, hi: int) -> tuple[int, int, int, int]:
    """Product of [[a, 1], [1, 0]] over ``word[lo:hi]`` as ``(x, y, z, w)``.

    Balanced binary splitting (Haible & Papanikolaou 1998): the big
    multiplications pair operands of equal size, so building a convergent
    costs O(M(n) log n) instead of the O(n**2) of the step-by-step update.
    """
    if hi - lo <= 64:  # measured: 64-quotient leaves beat 16, 32 and 128
        x, y, z, w = 1, 0, 0, 1
        for a in word[lo:hi]:
            x, y = a * x + y, x
            z, w = a * z + w, z
        return x, y, z, w
    mid = (lo + hi) // 2
    x1, y1, z1, w1 = _word_matrix(word, lo, mid)
    x2, y2, z2, w2 = _word_matrix(word, mid, hi)
    return (x1 * x2 + y1 * z2, x1 * y2 + y1 * w2,
            z1 * x2 + w1 * z2, z1 * y2 + w1 * w2)


def _pell_from_half(a0: int, r: int, half: list[int]) -> tuple[int, int]:
    """``(p_{r-1}, q_{r-1})`` of sqrt(D) from a0 and the half word of length r // 2.

    With A_k = [[a_k, 1], [1, 0]], (p_{r-1}, q_{r-1}) is the first column
    of A_0 A_1 ... A_{r-1}.  The word is a palindrome and each A_k is
    symmetric, so with L = A_1 ... A_{h'} built from the half word the
    middle factor is L A_h L^T for even r (h' = h - 1) and L L^T for odd
    r (h' = h).
    """
    h = len(half)
    if r % 2:
        x, y, z, w = _word_matrix(half, 0, h)
        q = x * x + y * y
        return a0 * q + x * z + y * w, q
    x, y, z, w = _word_matrix(half, 0, h - 1)
    a = half[-1]
    q = x * (a * x + 2 * y)
    return a0 * q + x * (a * z + w) + y * z, q


def _checked(D: int, p: int, q: int, value: int) -> PellSolution:
    """``PellSolution(p, q, value)`` once p**2 - D*q**2 == value is verified."""
    if p * p - D * (q * q) != value:  # q*q squares, cheaper than (D*q)*q
        raise AssertionError("pell value identity violated")
    return PellSolution(p, q, value)


def fundamental_pell(D: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> PellSolution:
    """Minimal solution of |X**2 - D*Y**2| = 1: the convergent at r-1.

    As d_k = 1 first at k = r, it is the least convergent with
    |X**2 - D*Y**2| < 2, which ``_least_convergent_below`` builds once
    from the half word; the value is (-1)**r.  The period may be of any
    length: X over the digit budget is refused (``ResourceLimitError``);
    with b = bits(budget), a refusal walks at most 2*b steps and builds
    nothing whose bound on Y passes the budget.
    """
    bits = _digit_budget_bits(digit_budget)
    sol = _least_convergent_below(D, _check_surd(D), 2, _y_max(digit_budget))
    if sol is None or sol.X.bit_length() > bits:
        size = f"more than {bits}" if sol is None else sol.X.bit_length()
        raise ResourceLimitError(
            f"X for D={D} has {size} bits, over the {digit_budget}-digit budget")
    return sol


def _least_convergent_below(D: int, a0: int, C: int, y_max: int) -> PellSolution | None:
    """Convergent p_j/q_j of sqrt(D) at the least j with |p_j**2 - D*q_j**2| < C.

    Returns None (a cap) unless q_j <= ``y_max``.  The least j is k - 1
    for the first k >= 1 with d_k < C, and the value is (-1)**k * d_k.
    As d_k = d_{r-k} for 0 < k < r and d_r = 1, that k lies in the first
    half of the period or is r, so the small-integer walk stops at k or
    at the palindrome midpoint and the convergent is built once: a
    balanced product over a_0 .. a_{k-1}, or the fundamental solution.
    C = 1 never hits and returns None at once.

    q_j never decreases in j, and log2 q_j >= max(sum(bitlen(a_i) - 1),
    j // 2) over a_1 .. a_j, from q_j >= a_j*q_{j-1} and q_j >= 2*q_{j-2}.
    With b = bitlen(y_max), every j >= 2*b is over y_max, so the walk
    keeps at most 2*b - 1 quotients (keep = 4*b - 2) and stops within
    2*b steps.  That bound, taken once after the walk, is the one place
    the cap applies: no convergent whose bound reaches b is built.  So a
    built q_j, at most prod(a_i + 1), has fewer than 3*b bits, and about
    2*b at most in practice (2*b + 2 over every non-square D < 20,000).
    """
    if C < 2:
        return None
    b = y_max.bit_length()
    r, half, d = _midpoint_walk(D, a0, 4 * b - 2, below=C)
    if half is None:
        return None
    bits = sum(map(int.bit_length, half)) - len(half)
    if r is None:
        j = len(half)
    else:
        # The whole word a_1 .. a_{r-1} mirrors the half around a_h.
        j = r - 1
        bits = 2 * bits - (0 if r % 2 else half[-1].bit_length() - 1)
    if max(bits, j // 2) >= b:
        return None
    if r is None:
        x, _, z, _ = _word_matrix(half, 0, j)
        p, q, value = a0 * x + z, x, d if j % 2 else -d
    else:
        p, q = _pell_from_half(a0, r, half)
        value = -1 if r % 2 else 1
    return _checked(D, p, q, value) if q <= y_max else None
