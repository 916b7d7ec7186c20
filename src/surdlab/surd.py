"""Streaming continued fractions of sqrt(D) with exact integer arithmetic.

The classical surd recurrence
    m' = d*a - m,   d' = (D - m'*m')/d,   a' = (a0 + m')//d'
runs with O(1) retained state; the division is always exact.  For a
non-square D the expansion is [a0; {a1, ..., a_{r-1}, 2*a0}] and the
period ends at the first step with d == 1.

No other module runs the recurrence.  Here ``_period_walk`` goes once
around the period (``cf_sqrt``, ``period_length``), ``_half_period`` stops
at the palindrome midpoint of the period (``fundamental_pell``, which
builds its big integers once from that half word),
``pell_value_stream`` builds the convergents with their Pell values, and
``cf_stream`` is the public per-step view of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

DEFAULT_WORD_CAP = 10**6
DEFAULT_PERIOD_CAP = 10**5
DEFAULT_DIGIT_BUDGET = 10**5


class SquareInputError(ValueError):
    """The input D is a perfect square, so sqrt(D) has no period."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (period length, digit budget) was hit."""


def _digit_budget_bits(digit_budget: int) -> int:
    """Bit length past which an integer surely exceeds ``digit_budget`` digits."""
    return int(digit_budget * math.log2(10)) + 1


def isqrt(n: int) -> int:
    """Floor square root: the s with s*s <= n < (s+1)*(s+1)."""
    if n < 0:
        raise ValueError("isqrt of a negative integer")
    return math.isqrt(n)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    s = math.isqrt(n)
    return s * s == n


def _check_surd(D: int) -> int:
    if not isinstance(D, int) or isinstance(D, bool):
        raise TypeError("D must be an integer")
    if D <= 0:
        raise ValueError(f"invalid D={D}: must be positive")
    a0 = math.isqrt(D)
    if a0 * a0 == D:
        raise SquareInputError(f"D={D} is a perfect square")
    return a0


@dataclass(frozen=True)
class SurdState:
    """Surd recurrence state at step k: sqrt(D) ~ (m + sqrt(D))/d."""

    D: int
    m: int
    d: int
    a: int
    k: int


@dataclass(frozen=True)
class CFExpansion:
    """Expansion of sqrt(D): a0 plus the periodic word of length r.

    ``period`` is None when the word was elided by a cap; ``r`` is exact
    either way.
    """

    D: int
    a0: int
    period: tuple[int, ...] | None
    r: int


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    j: int


@dataclass(frozen=True)
class PellSolution:
    X: int
    Y: int
    value: int


def cf_stream(D: int) -> Iterator[tuple[int, SurdState]]:
    """Yield partial quotients of sqrt(D) (starting with a0) forever."""
    a0 = _check_surd(D)
    m, d, a, k = 0, 1, a0, 0
    while True:
        yield a, SurdState(D, m, d, a, k)
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        k += 1


def _period_walk(D: int, word_cap: int) -> tuple[int, int, tuple[int, ...] | None]:
    """Run the recurrence once around the period of sqrt(D).

    Returns ``(a0, r, word)``: the word a_1..a_r is kept while
    r <= ``word_cap`` and is None past it.  This is the only loop that
    runs to the first step with d == 1.
    """
    a0 = _check_surd(D)
    m, d, a = 0, 1, a0
    word: list[int] = []
    r = 0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        r += 1
        if r <= word_cap:
            word.append(a)
        if d == 1:
            return a0, r, tuple(word) if r <= word_cap else None


def cf_sqrt(D: int, word_cap: int = DEFAULT_WORD_CAP) -> CFExpansion:
    """Expand sqrt(D) and detect the period (first step with d == 1).

    If the period exceeds ``word_cap`` the word is elided but r stays
    exact; that is not an error.
    """
    if word_cap < 1:
        raise ValueError("word_cap must be positive")
    a0, r, word = _period_walk(D, word_cap)
    return CFExpansion(D, a0, word, r)


def period_length(D: int) -> int:
    """Length r of the period of sqrt(D), with O(1) memory."""
    return _period_walk(D, 0)[1]


def period_bound_ratio(D: int, r: int | None = None) -> float:
    """Observed ratio r / (sqrt(D) * ln(D)) for growth reporting."""
    if r is None:
        r = period_length(D)
    return r / (math.sqrt(D) * math.log(D))


def is_palindromic_period(period: tuple[int, ...]) -> bool:
    """True when the word a_1..a_{r-1} before the closing 2*a0 reads both ways."""
    body = period[:-1]
    return body == body[::-1]


def convergents(D: int, count: int) -> list[Convergent]:
    """First ``count`` convergents p_j/q_j of sqrt(D)."""
    if count < 1:
        raise ValueError("count must be positive")
    return [Convergent(p, q, j) for j, p, q, _, _ in islice(pell_value_stream(D), count)]


def pell_value_stream(D: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield ``(j, p_j, q_j, p_j**2 - D*q_j**2, a_{j+1})`` for j = 0, 1, 2, ...

    The value comes from the surd recurrence identity
    ``p_j**2 - D*q_j**2 = (-1)**(j+1) * d_{j+1}``, avoiding a large
    squaring per step; ``a_{j+1}`` is the partial quotient that builds
    the next convergent.  Callers that return solutions re-verify them
    directly.
    """
    a0 = _check_surd(D)
    m, d, a = 0, 1, a0
    pm1, qm1 = 1, 0
    p, q = a0, 1
    j = 0
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        yield j, p, q, (d if j % 2 else -d), a
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q
        j += 1


def _half_period(D: int, period_cap: int) -> tuple[int, int, list[int]]:
    """Walk sqrt(D) to the palindrome midpoint of its period.

    Returns ``(a0, r, [a_1, ..., a_h])`` with h = r // 2, which fixes the
    whole word: a_k == a_{r-k} for 0 < k < r.  The midpoint is the first
    k >= 1 with m_{k+1} == m_k (r = 2k) or the first k >= 0 with
    d_{k+1} == d_k (r = 2k + 1; k = 0 is r = 1).  Raises
    ``ResourceLimitError`` iff r - 1 > ``period_cap``, after at most
    about ``period_cap / 2`` steps.
    """
    a0 = _check_surd(D)
    m, d, a = 0, 1, a0
    half: list[int] = []
    k = 0
    while True:
        m_next = d * a - m
        d_next = (D - m_next * m_next) // d
        if k and m_next == m:
            r = 2 * k
            break
        if d_next == d:
            r = 2 * k + 1
            break
        if 2 * k + 1 > period_cap:
            r = 2 * k + 2  # a lower bound, and already past the cap
            break
        m, d = m_next, d_next
        a = (a0 + m) // d
        half.append(a)
        k += 1
    if r - 1 > period_cap:
        raise ResourceLimitError(f"period of sqrt({D}) exceeds cap {period_cap}")
    return a0, r, half


def _word_matrix(word: list[int], lo: int, hi: int) -> tuple[int, int, int, int]:
    """Product of [[a, 1], [1, 0]] over ``word[lo:hi]`` as ``(x, y, z, w)``.

    Balanced binary splitting (Haible & Papanikolaou 1998): the big
    multiplications pair operands of equal size, so building a convergent
    costs O(M(n) log n) instead of the O(n**2) of the step-by-step update.
    """
    if hi - lo <= 16:
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


def fundamental_pell(D: int, period_cap: int = DEFAULT_PERIOD_CAP) -> PellSolution:
    """Minimal solution of |X**2 - D*Y**2| = 1: the convergent at r-1.

    With A_k = [[a_k, 1], [1, 0]], (p_{r-1}, q_{r-1}) is the first column
    of A_0 A_1 ... A_{r-1}.  The word is a palindrome and each A_k is
    symmetric, so with L = A_1 ... A_{h'} built from the half word the
    middle factor is L A_h L^T for even r (h' = h - 1) and L L^T for odd
    r (h' = h).  The value is (-1)**r.

    Refuses (``ResourceLimitError``) when r - 1 > ``period_cap``, since
    the solution then has on the order of ``period_cap`` digits.
    """
    a0, r, half = _half_period(D, period_cap)
    h = len(half)
    if r % 2:
        x, y, z, w = _word_matrix(half, 0, h)
        q = x * x + y * y
        p = a0 * q + x * z + y * w
    else:
        x, y, z, w = _word_matrix(half, 0, h - 1)
        a = half[-1]
        q = x * (a * x + 2 * y)
        p = a0 * q + x * (a * z + w) + y * z
    value = -1 if r % 2 else 1
    if p * p - D * q * q != value:
        raise AssertionError("pell value identity violated")
    return PellSolution(p, q, value)
