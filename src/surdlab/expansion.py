"""Formal square roots of power-sum forms.

Two closely related procedures live here.

``sqrt_approximation`` truncates the binomial series of
``sqrt(a1*b1**n*(1 + tail(n)))`` to the finitely many terms that decay
slower than the guaranteed error rate ``(sqrt(b1)*beta)**-n`` (``beta``
the ratio of the two largest bases), producing an approximation
``sqrt(a1) * f1(n) / b1**((k - 1/2)*n)`` with ``f1`` an exact form with
integer bases.  The irrational scale is never materialized: everything
is certified through its square or through interval arithmetic.
``error_table`` certifies the error in one pass over the rows, each row's
sign checked where its value is summed, with one integer square root per
row, the source's: the leading root ``sqrt(lead*B**n)`` is read off a
fixed-point constant ``sqrt(a*lq)`` (``lead = a/lq``), taken again at up to
twice the bits when a row needs more, never for a row not yet reached.
Each bound is an exact ratio of integers over one shared denominator per
row (fixed-point interval endpoints), never a reduced Fraction.

``decide_hypothesis`` asks whether some parity ``j`` admits an exact
decomposition ``f(2n+j) = h(n)**2 + g(n)`` with ``h`` a form with
rational coefficients and integer bases and ``g`` growing slower than
``sqrt(f)``; it extracts the candidate ``h`` (the part of the formal
square root with bases >= 1) exactly and checks the remainder
structurally, so the verdict needs no floating point at all.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .forms import (
    PowerSumForm,
    ZERO,
    _canonical,
    _check_n,
    add,
    classify,
    compose_affine,
    dominant,
    dominant_ratio,
    mul,
    normalize,
    relative_tail,
    scale,
)
from .surd import ResourceLimitError

HOLDS = "holds"
FAILS = "fails"
HOLDS_TRIVIALLY = "holds-by-trivial-criterion"

# Most terms a truncated binomial series may take before the input is
# refused with ResourceLimitError: near-1 base ratios need ~log(b)/log(ratio).
_DEPTH_CAP = 256
# Most term products a series may take before the input is refused with
# ResourceLimitError: with a tail of t terms the powers keep up to
# ~depth**(t - 1) terms, all of them big fractions when the ratio is near 1.
_PRODUCT_CAP = 4096
# Bits past a row's precision in error_table's fixed-point leading root: a
# row falls back to its own integer square root with odds ~2**-_GUARD_BITS.
_GUARD_BITS = 64
# A Mersenne prime, the modulus of growth_exponent's quick rejection.
_PRIME = (1 << 61) - 1
# The constant form 1: the series' first power, and a single term's root.
_ONE = normalize([(1, 1)])


def sqrt_rational(x: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    sp, sq = math.isqrt(p), math.isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


def _log(x: Fraction) -> float:
    """Natural log of a positive rational, near 1 or past the float range too."""
    n, d = x.numerator, x.denominator
    return math.log1p((n - d) / d) if abs(n - d) < d else math.log(n) - math.log(d)


def _floor_log_ratio(x: Fraction, base: Fraction) -> int:
    """Largest t >= 0 with base**t <= x, by exact comparison.

    The float logs put t within a step of the answer, so one exact power
    and a multiplication or two settle it: a base near 1 (t in the tens of
    thousands) is measured at once and refused by the caller.
    """
    if base <= 1 or x < 1:
        raise ValueError("requires base > 1 and x >= 1")
    t = int(_log(x) / _log(base))
    power = base**t
    while t > 0 and power > x:
        t -= 1
        power /= base
    while power * base <= x:
        t += 1
        power *= base
    return t


def _prune(f: PowerSumForm, threshold: Fraction, keep_equal: bool) -> PowerSumForm:
    keep = operator.ge if keep_equal else operator.gt
    return _canonical([t for t in f if keep(t[1], threshold)])


def _root_series(
    F: PowerSumForm, threshold: Fraction, keep_equal: bool
) -> tuple[PowerSumForm, int]:
    """``(series, limit)``: sqrt(1 + tail) of ``F`` pruned below ``threshold``.

    The series is Sum_{i<=limit} C(1/2, i) * tail**i, tail the relative
    tail of ``F``; limit is the largest i with ratio**-i >= ``threshold``
    (ratio of the two largest bases), as no later power keeps a term.
    Raises ``ResourceLimitError`` when limit exceeds ``_DEPTH_CAP``.

    Pruning mid-product is sound: tail bases are < 1, so a dropped term
    can only ever produce bases at or below where it was dropped.  The
    sum is gathered by base and normalized once, not once per power.
    """
    limit = _floor_log_ratio(1 / threshold, dominant_ratio(F))
    if limit > _DEPTH_CAP:
        raise ResourceLimitError(
            f"root series depth {limit} exceeds cap {_DEPTH_CAP} (base ratio too close to 1)"
        )
    tail = relative_tail(F)
    # Keyed by (numerator, denominator): a Fraction's hash takes a modular inverse.
    acc: dict[tuple[int, int], tuple[Fraction, Fraction]] = {(1, 1): (Fraction(1), Fraction(1))}
    power = _ONE
    coef = Fraction(1)
    products = 0
    for i in range(1, limit + 1):
        coef *= (Fraction(1, 2) - (i - 1)) / i
        products += len(power) * len(tail)
        if products > _PRODUCT_CAP:
            raise ResourceLimitError(
                f"series needs over {_PRODUCT_CAP} term products (base ratios too close to 1)"
            )
        power = _prune(mul(power, tail), threshold, keep_equal)
        if power.is_zero:
            break
        for c, u in power:
            c *= coef
            key = u.numerator, u.denominator
            prev = acc.get(key)
            acc[key] = (c, u) if prev is None else (prev[0] + c, u)
    return _prune(normalize(acc.values()), threshold, keep_equal), limit


class SqrtApprox(namedtuple("SqrtApprox",
                            "source lead_coefficient series_form depth error_base")):
    """Truncated square-root expansion of a power-sum form.

    With ``B`` the leading base of ``source``, the approximation of
    ``sqrt(source(n))`` is
    ``sqrt(lead_coefficient) * series_form(n) / B**((depth-1/2)*n)``.
    ``series_form`` is the zero form for single-term sources (the root is
    then exactly ``sqrt(lead_coefficient * B**n)``), and
    ``error_base`` is None in that case; otherwise the error at ``n`` is
    O(``error_base**-n``): a guaranteed rate, not the observed decay,
    which can be far faster (``1000^n + 2^n``, j = 0: ~1.56e13 per step
    against an ``error_base`` of 2.5e8).
    """

    __slots__ = ()

    @property
    def is_single_term(self) -> bool:
        return self.series_form.is_zero


def sqrt_approximation(f: PowerSumForm, j: int) -> SqrtApprox:
    """Build the truncated expansion of ``sqrt(f(2n+j))``.

    When ``j == 0`` and the leading base is already a perfect square the
    form is expanded in its own variable (composing would only square
    every scale); otherwise the form is composed with ``2n+j`` first so
    that the leading base becomes a square.
    """
    if j not in (0, 1):
        raise ValueError(f"invalid argument j={j}: must be 0 or 1")
    if f.is_zero:
        raise ValueError("cannot expand the zero form")
    if not classify(f).integral_bases:
        raise ValueError("square-root expansion requires integer bases")
    a1, b1 = dominant(f)
    if a1 <= 0:
        raise ValueError("leading coefficient must be positive")
    source = f if j == 0 and sqrt_rational(b1) is not None else compose_affine(f, j)
    lead, base = dominant(source)
    root_base = sqrt_rational(base)
    if root_base is None:
        raise AssertionError("composed leading base must be a square")

    if len(source) == 1:
        return SqrtApprox(source, lead, ZERO, 1, None)

    ratio = dominant_ratio(source)
    series, depth = _root_series(source, 1 / (base * ratio), keep_equal=False)
    scale_base = base**depth
    # One positive factor on every base keeps the series canonical.
    f1 = _canonical([(c, u * scale_base) for c, u in series])
    if dominant(f1)[1] != scale_base:
        raise AssertionError("series form lost its leading term")
    if classify(source).integral_bases and not classify(f1).integral_bases:
        raise AssertionError("series form must have integer bases")
    return SqrtApprox(source, lead, f1, depth, root_base * ratio)


# A certified bound ``lo <= x <= hi`` as two exact integer ratios,
# ``((lo_num, lo_den), (hi_num, hi_den))`` with positive denominators.
Bounds = tuple[tuple[int, int], tuple[int, int]]


def _integer_terms(f: PowerSumForm) -> tuple[int, list[int], list[int]]:
    """``(L, C, b)`` with ``f(n) = sum(C[i] * b[i]**n) / L``, all integers.

    ``L`` is the lcm of the coefficient denominators; bases must be integers.
    """
    L = math.lcm(*(c.denominator for c, _ in f))
    return (L, [c.numerator * (L // c.denominator) for c, _ in f],
            [b.numerator for _, b in f])


def error_table(
    approx: SqrtApprox, n_range: range, bits: int | None = None
) -> list[tuple[int, Bounds, Bounds | None]]:
    """Rows ``(n, error, decay)`` of certified bounds as exact integer ratios.

    ``error`` is ``((lo, den), (hi, den))`` with ``den > 0`` and
    ``lo/den <= |sqrt(source(n)) - approximation(n)| <= hi/den``.  The
    rows run over consecutive n, and ``decay`` bounds the previous row's
    error over this one's (the decay per step) the same way; it is None on
    the first row and wherever ``lo`` is 0.  No ratio is brought to lowest
    terms: each is meant for one correctly rounded ``num / den``.  A range
    whose step is not 1, or that reaches a negative n, raises ValueError
    before any row, single-term forms too; a source negative at some n
    raises it at the first such row, as soon as its value is summed.

    The bounds are Moore interval arithmetic on integer endpoints.  Both
    square roots are bracketed the same way: ``sqrt(p/q)`` lies in
    ``[s, s + 1]/(q << bits)`` with ``s = isqrt(p*q << 2*bits)`` for the
    reduced ``p/q``, here ``source(n) = N/L`` (reduced against the small
    ``L``) and ``lead*B**n = a*B**n/lq`` (reduced against ``lq``).  The
    latter's ``s`` is ``rb**n*sqrt(a*lq) << bits`` over ``h = gcd(B**n, lq)``,
    floored (``rb**2 = B``): ``t = isqrt(a*lq << 2*P)``, with ``P`` at least
    ``need(n) = bits + n*bitlen(rb) + _GUARD_BITS``, puts it in
    ``[rb**n*t, rb**n*(t + 1))/(h << P - bits)``.  The first row, and any
    row with ``P < need(n)``, takes ``t`` again with ``P =
    min(need(n_hi), 2*need(n))``: one constant when the last row needs at
    most twice the first row's bits, O(log) growing ones otherwise.
    Floors of floors compose, so where both ends floor alike that floor
    is ``s``; otherwise (odds ~2**-_GUARD_BITS) the row takes its own
    ``isqrt``.  An exact ``t`` never gets there: then the bracket's low
    end is ``s`` plus a multiple of ``1/h``, and its width is below
    ``1/h``.  The series factor
    ``f1(n)/B**(k*n)`` is ``S/(M*B**(k*n))`` with ``S`` an integer, so every
    endpoint is an integer over ``den = q*lq*M*B**(k*n) << bits`` and no
    row takes a big gcd.  ``bits`` forces the precision of every row; by
    default it is ``max(96, int(n*log2(error_base)) + 96)``, priced on the
    guaranteed rate, so an error that decays faster can leave ``lo`` at 0.
    """
    if n_range.step != 1:
        raise ValueError(f"error rows need consecutive n, not step {n_range.step}")
    if not n_range:
        return []
    _check_n(n_range[0])
    if approx.is_single_term:
        return [(n, ((0, 1), (0, 1)), None) for n in n_range]
    L, source, source_bases = _integer_terms(approx.source)
    M, series, series_bases = _integer_terms(approx.series_form)
    a, lq = approx.lead_coefficient.numerator, approx.lead_coefficient.denominator
    # Each log apart, so that bases past the float range stay finite.
    base = approx.error_base
    log_rate = math.log2(base.numerator) - math.log2(base.denominator)

    def precision(n: int) -> int:
        return bits if bits is not None else max(96, int(n * log_rate) + 96)

    rb = math.isqrt(source_bases[0])  # B = rb**2, a square by construction
    bases, cut = source_bases + series_bases + [rb], len(source)
    # top is the last row's need; P = -1 has no constant yet.
    rbits, n_hi = rb.bit_length(), n_range[-1]
    top, P = precision(n_hi) + n_hi * rbits + _GUARD_BITS, -1
    rows: list[tuple[int, Bounds, Bounds | None]] = []
    prev = None
    for n in n_range:
        if prev is None:
            powers = [b**n for b in bases]
        else:
            powers = [w * b for w, b in zip(powers, bases)]
        shift = precision(n)
        N = sum(map(operator.mul, source, powers))
        if N < 0:
            raise ValueError(f"source({n}) = {Fraction(N, L)} is negative")
        g = math.gcd(N % L, L)
        q = L // g
        root = math.isqrt((N // g) * q << 2 * shift)
        need = shift + n * rbits + _GUARD_BITS
        if P < need:
            P = min(top, 2 * need)
            t = math.isqrt(a * lq << 2 * P)
        h = math.gcd(powers[0] % lq, lq)  # powers[0] = B**n
        z, k = powers[-1] * t, P - shift  # powers[-1] = rb**n
        lead_root = (z >> k) // h
        if lead_root != ((z + powers[-1] - 1) >> k) // h:
            lead_root = math.isqrt((a * powers[0] // h) * (lq // h) << 2 * shift)
        S = sum(map(operator.mul, series, powers[cut:]))
        # sqrt(source(n)) lies in [root, root + 1] * x/den and the
        # approximation in [lead_root, lead_root + 1] * y/den.
        x = lq * M * powers[cut]  # powers[cut] = B**(k*n)
        y = q * h * S
        d = root * x - lead_root * y
        lo, hi = (d - y, d + x) if y >= 0 else (d, d + x - y)
        if hi <= 0:
            lo, hi = -hi, -lo
        elif lo < 0:
            lo, hi = 0, max(-lo, hi)
        decay = None
        if prev is not None and lo > 0:
            # den/den_prev = up/pq from small factors only; shift never falls.
            plo, phi, pq, pshift = prev
            up = (q << shift - pshift) * series_bases[0]
            decay = ((plo * up, pq * hi), (phi * up, pq * lo))
        den = (q * x) << shift
        rows.append((n, ((lo, den), (hi, den)), decay))
        prev = lo, hi, q, shift
    return rows


# ---------------------------------------------------------------------------
# Square-decomposition hypothesis
# ---------------------------------------------------------------------------


# An exact decomposition ``f(2n + parity) = root(n)**2 + remainder(n)``.
# ``remainder_exponent`` is the growth exponent of the remainder relative to
# the composed form (-inf for a zero remainder); a witness is only emitted
# when it is strictly below 1/2.
HypothesisWitness = namedtuple("HypothesisWitness",
                               "parity root remainder remainder_exponent")


class HypothesisReport(namedtuple("HypothesisReport", "verdict witnesses warnings",
                                  defaults=((), ()))):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.verdict != FAILS


def trivial_criterion(f: PowerSumForm) -> bool:
    """Quick sufficient test: True when the hypothesis certainly holds.

    If neither the leading coefficient nor its product with the leading
    base is a rational square, no decomposition can even start (the
    formal root's first coefficient is irrational for both parities).
    """
    a1, b1 = dominant(f)
    if a1 <= 0:
        raise ValueError("leading coefficient must be positive")
    return sqrt_rational(a1) is None and sqrt_rational(a1 * b1) is None


def _extract_root(F: PowerSumForm) -> PowerSumForm | None:
    """Terms of the formal square root of ``F`` with base >= 1, or None.

    None means no candidate exists for this parity: either the leading
    coefficient of the root is irrational, or a kept term has a
    non-integer base (the root then falls outside the integral-base
    ring).  Raises ``ResourceLimitError`` when the series would need more
    than ``_DEPTH_CAP`` terms.
    """
    lead, base = dominant(F)
    root_lead = sqrt_rational(lead)
    root_base = None if root_lead is None else sqrt_rational(base)
    if root_base is None:
        return None
    if len(F) == 1:
        series = _ONE
    else:
        # The root's first tail term has base B2/sqrt(B1) (B1 > B2 the two
        # largest bases of F) and a nonzero coefficient; every other series
        # term has a smaller base.  Kept with a non-integer base, it alone
        # rules the candidate out, so skip building the series.
        first_tail_base = F[1][1] / root_base
        if first_tail_base >= 1 and first_tail_base.denominator != 1:
            return None
        series, _ = _root_series(F, 1 / root_base, keep_equal=True)
    # Positive factors on every coefficient and base keep it canonical.
    root = _canonical([(root_lead * c, root_base * u) for c, u in series])
    if any(b.denominator != 1 for _, b in root):
        return None
    return root


def decide_hypothesis(f: PowerSumForm) -> HypothesisReport:
    """Decide the square-decomposition hypothesis for ``f`` exactly.

    "Growing slower than sqrt(f)" is read structurally: the remainder's
    dominant base must be strictly below the square root of the composed
    form's leading base.  For forms with a growing leading base this is
    equivalent to the asymptotic growth-exponent condition; for constant
    forms (leading base 1) the asymptotic reading degenerates and the
    structural one is the documented behaviour (only a zero remainder
    counts).

    For each parity the candidate root is unique (any other choice
    changes the remainder by a term growing at least like the root
    itself), so extracting it and checking the remainder's dominant base
    decides the question.
    """
    if dominant(f)[0] <= 0:
        raise ValueError("leading coefficient must be positive")
    if not classify(f).integral_bases:
        raise ValueError("hypothesis decision requires integer bases")

    witnesses: list[HypothesisWitness] = []
    warnings: list[str] = []
    for j in (0, 1):
        F = compose_affine(f, j)
        root = _extract_root(F)
        if root is None:
            continue
        remainder = add(F, scale(mul(root, root), -1))
        bound = dominant(root)[1]  # sqrt of F's leading base
        rem_base = dominant(remainder)[1] if remainder else 0
        if rem_base < bound:
            witnesses.append(HypothesisWitness(j, root, remainder, growth_exponent(remainder, F)))
        elif rem_base == bound:
            # Exact tie at exponent 1/2: not a witness, but flag it
            # rather than silently calling the hypothesis satisfied.
            warnings.append(f"j={j}: remainder sits exactly at the 1/2 growth boundary")

    if witnesses:
        return HypothesisReport(FAILS, tuple(witnesses), tuple(warnings))
    if trivial_criterion(f):
        return HypothesisReport(HOLDS_TRIVIALLY, (), tuple(warnings))
    return HypothesisReport(HOLDS, (), tuple(warnings))


# ---------------------------------------------------------------------------
# Growth exponents
# ---------------------------------------------------------------------------


def growth_exponent(g: PowerSumForm, f: PowerSumForm) -> Fraction | float:
    """Growth exponent of ``g`` relative to ``f``: log of dominant bases.

    log(u)/log(v) for the dominant bases u of ``g`` and v of ``f``: exact
    (a Fraction) when the two bases are multiplicatively dependent, at any
    size, a float otherwise; -inf for the zero form.  Dependent bases have
    u**q == v**p for the ratio p/q in lowest terms, so v = t**q with a
    rational t != 1, and q is below the bit length of v's numerator times
    its denominator.  The candidate is the fraction nearest to the float
    ratio with a denominator that small, kept only when u**q == v**p
    holds exactly.  Both sides are in lowest terms, so numerators and
    denominators are compared apart, each modulo a prime first: bases
    that are independent build no big power.
    """
    if g.is_zero:
        return float("-inf")
    v = dominant(f)[1]
    if v <= 1:
        raise ValueError("reference form must have dominant base > 1")
    u = dominant(g)[1]
    # Each log apart, so that bases past the float range stay finite.
    ratio = ((math.log(u.numerator) - math.log(u.denominator))
             / (math.log(v.numerator) - math.log(v.denominator)))
    exact = Fraction(ratio).limit_denominator((v.numerator * v.denominator).bit_length())
    p, q = abs(exact.numerator), exact.denominator
    w = v if exact >= 0 else 1 / v
    if all(pow(x, q, _PRIME) == pow(y, p, _PRIME) and x**q == y**p
           for x, y in ((u.numerator, w.numerator), (u.denominator, w.denominator))):
        return exact
    return ratio
