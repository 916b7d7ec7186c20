"""Streaming continued fractions of sqrt(D) with exact integer arithmetic.

The surd recurrence
    m' = d*a - m,   d' = d_prev + a*(m - m'),   a' = (a0 + m')//d'
runs with O(1) retained state, starting from m = 0, d = 1, a = a0 and
d_prev = D.  Its d' is the classical (D - m'*m')/d in the division-free
form used by SQUFOF (Gower & Wagstaff, "Square form factorization",
Math. Comp. 2008): no square, no division, and past the first step no
read of D, so m and d stay below 2*sqrt(D).  For a non-square D the
expansion is [a0; {a1, ..., a_{r-1}, 2*a0}], and a1 ... a_{r-1} is a
palindrome.

No other module runs the recurrence.  Here ``_midpoint_walk`` stops at
the palindrome midpoint of the period, which fixes r and the whole word
(``fundamental_pell``, ``cf_sqrt``, ``period_length`` and, through it,
family rows), or earlier at the least Y of |X**2 - D*Y**2| < C
(``_least_convergent_below``, behind the minimal-Y family scan);
``pell_value_stream`` builds the convergents with their Pell values, and
``cf_stream`` is the public per-step view of the state.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import count, islice

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


# Expansion of sqrt(D): a0 plus the periodic word of length r.  ``period``
# is None when the word was elided by a cap; ``r`` is exact either way.
CFExpansion = namedtuple("CFExpansion", "D a0 period r")

Convergent = namedtuple("Convergent", "p q j")

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


def _midpoint_walk(D: int, keep: int = 0, bounded: bool = False, below: int = 0,
                   cap_bits: int = 0) -> tuple[int, int | None, list[int] | None, int]:
    """Walk sqrt(D) to the palindrome midpoint of its period.

    Returns ``(a0, r, half, d)`` with ``half = [a_1, ..., a_h]``,
    h = r // 2, which fixes the whole word: a_k == a_{r-k} for 0 < k < r.
    The midpoint is the first k >= 1 with m_{k+1} == m_k (r = 2k) or the
    first k >= 0 with d_{k+1} == d_k (r = 2k + 1; k = 0 is r = 1);
    m_1 = a0 > m_0 makes k = 0 safe in the first test.  ``half`` is kept
    iff r <= ``keep`` and is None otherwise, so it never holds more than
    keep // 2 quotients.  A ``bounded`` walk stops once r > ``keep`` is
    certain, after at most about keep / 2 steps, and returns r = None.

    While the half is kept the walk also stops early, with r = None:
    - at the first k >= 1 with d_k < ``below``, returning
      ``half = [a_1, ..., a_{k-1}]`` and ``d = d_k``;
    - with ``cap_bits``, once d_1 .. d_{j} are all >= ``below`` and
      max(sum(bitlen(a_i) - 1), j // 2) over a_1 .. a_j, a lower bound on
      log2 q_j, reaches ``cap_bits``; ``half`` is then None.  The bound is
      taken at checkpoints, not per step, so the walk may run a little
      past that j; it needs keep >= 4 * cap_bits.
    Otherwise ``d`` is the last d_k accepted.  Neither test runs once the
    half is dropped, so ``period_length`` (keep = 0) pays for neither
    after step 0.
    """
    a0 = _check_surd(D)
    m, d, d_prev, a = 0, 1, D, a0
    half: list[int] | None = []
    h_keep = keep // 2
    # The half grows freely below h_max; with a cap, h_max < h_keep marks
    # the next checkpoint of the cap bound.
    h_max = min(h_keep, cap_bits) if cap_bits else h_keep
    for k in count():
        m_next = d * a - m
        if m_next == m:
            r = 2 * k
            break
        d_next = d_prev + a * (m - m_next)
        if d_next == d:
            r = 2 * k + 1
            break
        m, d, d_prev = m_next, d_next, d
        a = (a0 + m) // d
        if half is not None:
            # r >= 2k + 2 from here on.
            if d < below:
                return a0, None, half, d
            if k < h_max:
                half.append(a)
            elif k < h_keep:
                # A checkpoint of the cap bound, on q_{k+1}.
                half.append(a)
                bits = max(sum(map(int.bit_length, half)) - len(half), (k + 1) // 2)
                if bits >= cap_bits:
                    return a0, None, None, d
                h_max = min(h_keep, k + 1 + cap_bits - bits)
            elif bounded:
                return a0, None, None, d
            else:
                half = None
    return a0, r, half if r <= keep else None, d


def cf_sqrt(D: int, word_cap: int = DEFAULT_WORD_CAP) -> CFExpansion:
    """Expand sqrt(D): a0, the period word and its length r.

    The word is mirrored from the half walked to the palindrome midpoint.
    If the period exceeds ``word_cap`` the word is elided but r stays
    exact; that is not an error.
    """
    if word_cap < 1:
        raise ValueError("word_cap must be positive")
    a0, r, half, _ = _midpoint_walk(D, word_cap)
    if half is None:
        return CFExpansion(D, a0, None, r)
    # Odd r repeats the middle quotient a_h = a_{h+1}; even r does not.
    mirror = half[::-1] if r % 2 else half[-2::-1]
    return CFExpansion(D, a0, (*half, *mirror, 2 * a0), r)


def period_length(D: int) -> int:
    """Length r of the period of sqrt(D), with O(1) memory."""
    return _midpoint_walk(D)[1]


def period_bound_ratio(D: int, r: int) -> float:
    """Observed ratio r / (sqrt(D) * ln(D)) of the period length r of sqrt(D)."""
    return r / (math.sqrt(D) * math.log(D))


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
    m, d, d_prev, a = 0, 1, D, a0
    pm1, qm1 = 1, 0
    p, q = a0, 1
    for j in count():
        m, m_prev = d * a - m, m
        d, d_prev = d_prev + a * (m_prev - m), d
        a = (a0 + m) // d
        yield j, p, q, (d if j % 2 else -d), a
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q


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
    if p * p - D * q * q != value:
        raise AssertionError("pell value identity violated")
    return PellSolution(p, q, value)


def fundamental_pell(D: int, period_cap: int = DEFAULT_PERIOD_CAP) -> PellSolution:
    """Minimal solution of |X**2 - D*Y**2| = 1: the convergent at r-1.

    It is built once from the half word walked to the palindrome midpoint
    (``_pell_from_half``); the value is (-1)**r.

    Refuses (``ResourceLimitError``) when r - 1 > ``period_cap``, since
    the solution then has on the order of ``period_cap`` digits; the walk
    gives up after at most about ``period_cap / 2`` steps.
    """
    a0, r, half, _ = _midpoint_walk(D, period_cap + 1, bounded=True)
    if half is None:
        raise ResourceLimitError(f"period of sqrt({D}) exceeds cap {period_cap}")
    return _checked(D, *_pell_from_half(a0, r, half), -1 if r % 2 else 1)


def _least_convergent_below(D: int, C: int, y_max: int) -> PellSolution | None:
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
    With b = bitlen(y_max), the walk gives up once that bound reaches b,
    and no convergent whose bound reaches b is built.  So a built q_j, at
    most prod(a_i + 1), has fewer than 3*b bits, and about 2*b at most in
    practice (2*b + 2 over every non-square D < 20,000).
    """
    if C < 2:
        return None
    cap_bits = y_max.bit_length()
    a0, r, half, d = _midpoint_walk(D, 4 * cap_bits, bounded=True, below=C,
                                    cap_bits=cap_bits)
    if half is None:
        return None
    bits = sum(map(int.bit_length, half)) - len(half)
    if r is None:
        j = len(half)
    else:
        # The whole word a_1 .. a_{r-1} mirrors the half around a_h.
        j = r - 1
        bits = 2 * bits - (0 if r % 2 else half[-1].bit_length() - 1)
    if max(bits, j // 2) >= cap_bits:
        return None
    if r is None:
        x, _, z, _ = _word_matrix(half, 0, j)
        p, q, value = a0 * x + z, x, d if j % 2 else -d
    else:
        p, q = _pell_from_half(a0, r, half)
        value = -1 if r % 2 else 1
    return _checked(D, p, q, value) if q <= y_max else None
