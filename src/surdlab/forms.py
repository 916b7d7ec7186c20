"""Exact arithmetic for power-sum forms.

A power-sum form is a finite sum ``a_1*b_1**n + ... + a_l*b_l**n`` with
rational coefficients ``a_i`` and positive rational bases ``b_i``.  All
arithmetic here is exact (``fractions.Fraction`` throughout); evaluation
at any non-negative integer ``n`` returns an exact rational.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction


class FormSyntaxError(ValueError):
    """Text that does not match the form syntax accepted by ``parse_form``."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(x)


class PowerSumForm(tuple):
    """A power-sum form in canonical shape: a tuple of its terms.

    The items are ``(coefficient, base)`` pairs with strictly decreasing
    positive bases and no zero coefficients; the empty tuple is the zero
    form, and ``terms`` is the same pairs as a plain tuple.  Length,
    truth, equality, hashing and pickling are the tuple's.  Instances are
    immutable values: every operation returns a new form, so they are
    safe to share between threads or processes.

    Build instances with :func:`normalize` (or the arithmetic helpers)
    rather than by hand.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple[Fraction, Fraction]] = ()) -> PowerSumForm:
        self = super().__new__(cls, terms)
        prev = None
        for coef, base in self:
            if not isinstance(coef, Fraction) or not isinstance(base, Fraction):
                raise TypeError("terms must be Fraction pairs; use normalize()")
            if base <= 0:
                raise ValueError(f"invalid base {base}: bases must be positive")
            if coef == 0:
                raise ValueError("zero coefficient in canonical form")
            if prev is not None and base >= prev:
                raise ValueError("bases must be strictly decreasing")
            prev = base
        return self

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(self)

    @property
    def is_zero(self) -> bool:
        return not self

    def __str__(self) -> str:
        return format_form(self)


ZERO = PowerSumForm()


def normalize(raw_terms: Iterable[tuple]) -> PowerSumForm:
    """Canonicalize raw ``(coefficient, base)`` pairs.

    Duplicate bases are merged, zero coefficients dropped, and terms
    sorted by base descending.  Evaluation at every ``n`` is unchanged.
    Raises ``ValueError`` for non-positive bases.

    >>> str(normalize([(1, 3), (2, 9)]))
    '2*9^n + 3^n'
    """
    merged: dict[Fraction, Fraction] = {}
    for coef, base in raw_terms:
        coef, base = _frac(coef), _frac(base)
        if base <= 0:
            raise ValueError(f"invalid base {base}: bases must be positive")
        merged[base] = merged.get(base, Fraction(0)) + coef
    terms = tuple(
        (coef, base)
        for base, coef in sorted(merged.items(), key=lambda kv: kv[0], reverse=True)
        if coef != 0
    )
    return PowerSumForm(terms)


def monomial(coef, base) -> PowerSumForm:
    return normalize([(coef, base)])


def constant(c) -> PowerSumForm:
    return normalize([(c, 1)])


def add(f: PowerSumForm, g: PowerSumForm) -> PowerSumForm:
    return normalize((*f, *g))


def mul(f: PowerSumForm, g: PowerSumForm) -> PowerSumForm:
    return normalize(
        [(ca * cb, ba * bb) for ca, ba in f for cb, bb in g]
    )


def scale(f: PowerSumForm, c) -> PowerSumForm:
    c = _frac(c)
    if c == 0:
        return ZERO
    return PowerSumForm((coef * c, base) for coef, base in f)


def compose_affine(f: PowerSumForm, j: int) -> PowerSumForm:
    """Return the form ``n -> f(2n + j)`` for ``j`` in {0, 1}.

    Each term ``(a, b)`` becomes ``(a*b**j, b**2)``; in particular the
    leading base of the result is a perfect square whenever the input
    bases are integers.
    """
    if j not in (0, 1):
        raise ValueError(f"invalid argument j={j}: must be 0 or 1")
    return normalize([(coef * base**j, base * base) for coef, base in f])


def eval_exact(f: PowerSumForm, n: int) -> Fraction:
    """Exact value of ``f`` at a non-negative integer ``n``."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("n must be an integer")
    if n < 0:
        raise ValueError("evaluation at negative n is not defined")
    return sum((coef * base**n for coef, base in f), Fraction(0))


def eval_int(f: PowerSumForm, n: int) -> int:
    """Exact integer value of ``f(n)``; raises if the value is fractional."""
    value = eval_exact(f, n)
    if value.denominator != 1:
        raise ValueError(f"f({n}) = {value} is not an integer")
    return value.numerator


def dominant(f: PowerSumForm) -> tuple[Fraction, Fraction]:
    """Leading ``(coefficient, base)`` pair; errors on the zero form."""
    if f.is_zero:
        raise ValueError("zero form has no dominant term")
    return f[0]


def dominant_ratio(f: PowerSumForm) -> Fraction | None:
    """Ratio of the two largest bases, or ``None`` for single-term forms.

    ``None`` plays the role of an infinite ratio: a single-term form has
    no sub-dominant part at all.
    """
    if f.is_zero:
        raise ValueError("zero form has no dominant term")
    if len(f) == 1:
        return None
    return f[0][1] / f[1][1]


def relative_tail(f: PowerSumForm) -> PowerSumForm:
    """The tail of ``f`` relative to its dominant term.

    Returns the form ``t`` with ``f(n) = a_1*b_1**n * (1 + t(n))``
    identically; its bases are the ratios ``b_i/b_1 < 1``.  Requires a
    positive leading coefficient.
    """
    a1, b1 = dominant(f)
    if a1 <= 0:
        raise ValueError("leading coefficient must be positive")
    return PowerSumForm((coef / a1, base / b1) for coef, base in f[1:])


# Which ring a form inhabits.  ``integral_coefficients`` means integer
# coefficients *and* integer bases (the fully integral ring);
# ``integral_bases`` alone admits rational coefficients.
FormClass = namedtuple("FormClass", "integral_bases integral_coefficients positive_leading")


def classify(f: PowerSumForm) -> FormClass:
    int_bases = all(base.denominator == 1 for _, base in f)
    int_coefs = int_bases and all(coef.denominator == 1 for coef, _ in f)
    positive = bool(f) and f[0][0] > 0
    return FormClass(int_bases, int_coefs, positive)


# ---------------------------------------------------------------------------
# Text syntax.  Canonical printing round-trips through the parser:
#   2*4^n + 1        -3*(9/4)^n        16^n + (1/4)*4^n - 1/32
# Bases are unsigned integers or parenthesized rationals; a coefficient is a
# rational, parenthesized when printed with a denominator.
# ---------------------------------------------------------------------------

_RAT = r"\d+(?:/\d+)?"
_TERM_RE = re.compile(
    rf"^(?:(?P<coef>\(?{_RAT}\)?)\*)?(?P<base>\d+|\({_RAT}\))\^n$"
)
_CONST_RE = re.compile(rf"^\(?{_RAT}\)?$")


def _parse_rational(text: str) -> Fraction:
    return Fraction(text.strip("()"))


def parse_form(text: str) -> PowerSumForm:
    """Parse the text syntax for forms, e.g. ``"2*4^n + 1"``.

    Terms are separated by ``+``/``-``; each term is ``coef*base^n``,
    ``base^n`` (coefficient 1) or a bare rational constant.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise FormSyntaxError("empty form")
    # Split into signed chunks at top-level +/- (parens never nest).
    chunks: list[tuple[int, str]] = []
    sign, start, depth = 1, 0, 0
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        start = 1
    pos = start
    for i, ch in enumerate(compact[start:], start):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > pos:
            chunks.append((sign, compact[pos:i]))
            sign = -1 if ch == "-" else 1
            pos = i + 1
    chunks.append((sign, compact[pos:]))

    raw: list[tuple[Fraction, Fraction]] = []
    for sgn, chunk in chunks:
        if not chunk:
            raise FormSyntaxError(f"dangling sign in {text!r}")
        m = _TERM_RE.match(chunk)
        if m:
            coef = _parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
            base = _parse_rational(m.group("base"))
        elif _CONST_RE.match(chunk):
            coef, base = _parse_rational(chunk), Fraction(1)
        else:
            raise FormSyntaxError(f"cannot parse term {chunk!r} in {text!r}")
        if base <= 0:
            raise FormSyntaxError(f"invalid base {base} in {text!r}")
        raw.append((sgn * coef, base))
    return normalize(raw)


def _fmt_rational(x: Fraction, parens: bool) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    body = f"{x.numerator}/{x.denominator}"
    return f"({body})" if parens else body


def format_form(f: PowerSumForm) -> str:
    """Canonical text for a form; ``parse_form`` inverts it exactly."""
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for i, (coef, base) in enumerate(f):
        mag = abs(coef)
        if base == 1:
            body = _fmt_rational(mag, parens=False)
        elif mag == 1:
            body = f"{_fmt_rational(base, parens=True)}^n"
        else:
            body = f"{_fmt_rational(mag, parens=True)}*{_fmt_rational(base, parens=True)}^n"
        if i == 0:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(parts)
