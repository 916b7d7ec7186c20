"""Power-sum form arithmetic: examples, ring laws, parser round-trips."""

from __future__ import annotations

import contextlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surdlab.expansion import _extract_root, _prune, sqrt_approximation
from surdlab.forms import (
    FormSyntaxError,
    PowerSumForm,
    ZERO,
    _canonical,
    add,
    classify,
    compose_affine,
    constant,
    dominant,
    dominant_ratio,
    eval_exact,
    eval_int,
    format_form,
    mul,
    normalize,
    parse_form,
    relative_tail,
    scale,
)
from surdlab.surd import ResourceLimitError

from oracles import fraction_keyed_normalize, per_term_eval

F = Fraction


def test_normalize_merges_duplicate_bases():
    assert normalize([(1, 2), (1, 2)]) == normalize([(2, 2)])


def test_normalize_drops_zero_coefficients():
    assert normalize([(0, 5), (3, 2)]) == normalize([(3, 2)])


def test_normalize_sorts_bases_descending():
    got = normalize([(1, 3), (2, 9)])
    assert got == ((F(2), F(9)), (F(1), F(3)))


def test_normalize_rejects_nonpositive_bases():
    with pytest.raises(ValueError, match="invalid base"):
        normalize([(1, 0)])
    with pytest.raises(ValueError, match="invalid base"):
        normalize([(1, -3)])
    with pytest.raises(ValueError, match=r"^invalid base -1/2: bases must be positive$"):
        normalize([(F(1), F(-1, 2))])


# A few numbers, each drawn in any of its spellings: the Fraction, an
# unreduced "p/q" string and, for integers, the int.
_NUMBERS = [F(1), F(2), F(12), F(-3), F(1, 2), F(3, 4), F(9, 4), F(-5, 6), F(10**30 + 1, 7)]


@st.composite
def _spelling(draw, x):
    k = draw(st.integers(1, 3))
    spellings = [x, f"{x.numerator * k}/{x.denominator * k}"]
    if x.denominator == 1:
        spellings.append(x.numerator)
    return draw(st.sampled_from(spellings))


@st.composite
def _spelled_raw_terms(draw):
    """Raw terms over positive bases, some cancelling others to zero."""
    numbers = st.sampled_from(_NUMBERS)
    raw = []
    for coef, base in draw(st.lists(st.tuples(numbers, numbers.filter(lambda x: x > 0)),
                                    max_size=8)):
        raw.append((draw(_spelling(coef)), draw(_spelling(base))))
        if draw(st.booleans()):
            raw.append((draw(_spelling(-coef)), draw(_spelling(base))))
    return draw(st.permutations(raw))


@settings(max_examples=300)
@given(_spelled_raw_terms())
def test_normalize_equals_the_fraction_keyed_merge(raw):
    got = normalize(raw)
    assert got == fraction_keyed_normalize(raw)
    assert all(type(c) is F and type(b) is F for c, b in got)


@pytest.mark.parametrize("raw", [[(1.5, 2)], [(1, 2.0)], [(F(1), 0.5)]])
def test_normalize_rejects_floats(raw):
    with pytest.raises(TypeError, match="^floats are not exact; pass int, str or Fraction$"):
        normalize(raw)


# Outside terms (and pickles) enter through the checking constructor, which
# refuses anything not in canonical shape; the builders never reach these.
@pytest.mark.parametrize("terms, error, message", [
    ([(F(0), F(2))], ValueError, "zero coefficient in canonical form"),
    ([(F(1), F(2)), (F(3), F(2))], ValueError, "bases must be strictly decreasing"),
    ([(F(1), F(2)), (F(3), F(5))], ValueError, "bases must be strictly decreasing"),
    ([(1, F(2))], TypeError, "terms must be Fraction pairs; use normalize()"),
    ([(F(1), 2)], TypeError, "terms must be Fraction pairs; use normalize()"),
    ([(F(1), 2.0)], TypeError, "terms must be Fraction pairs; use normalize()"),
    ([(F(1), F(0))], ValueError, "invalid base 0: bases must be positive"),
    ([(F(1), F(-3, 2))], ValueError, "invalid base -3/2: bases must be positive"),
])
def test_power_sum_form_refuses_outside_terms(terms, error, message):
    with pytest.raises(error) as err:
        PowerSumForm(terms)
    assert str(err.value) == message
    # A pickle of such terms is refused the same way when it is loaded.
    with pytest.raises(error) as err:
        pickle.loads(pickle.dumps(_canonical(terms)))
    assert str(err.value) == message


def test_mul_difference_of_squares():
    f = parse_form("3^n + 1")
    g = parse_form("3^n - 1")
    assert mul(f, g) == parse_form("9^n - 1")


def test_add_cancels_constant():
    assert add(parse_form("2*4^n + 1"), constant(-1)) == parse_form("2*4^n")


def test_mul_square():
    f = parse_form("3^n + 1")
    assert mul(f, f) == parse_form("9^n + 2*3^n + 1")


def test_compose_affine_title_family():
    f = parse_form("2*4^n + 1")
    assert compose_affine(f, 0) == parse_form("2*16^n + 1")
    assert compose_affine(f, 1) == parse_form("8*16^n + 1")


def test_compose_affine_monomial():
    assert compose_affine(parse_form("3^n"), 1) == parse_form("3*9^n")


def test_compose_affine_rejects_bad_parity():
    with pytest.raises(ValueError, match="invalid argument"):
        compose_affine(parse_form("3^n"), 2)


def test_eval_exact_title_family():
    f = parse_form("2*4^n + 1")
    assert eval_exact(f, 2) == 33
    assert eval_exact(f, 1) == 9
    assert eval_exact(parse_form("3^n"), 0) == 1


def test_eval_negative_n_is_an_error():
    with pytest.raises(ValueError, match="negative n"):
        eval_exact(parse_form("3^n"), -1)


def test_eval_int_rejects_fractional_values():
    f = normalize([(F(1, 2), 2)])
    assert eval_int(f, 1) == 1
    with pytest.raises(ValueError, match="not an integer"):
        eval_int(f, 0)


def test_dominant_and_ratio():
    f = parse_form("2*4^n + 1")
    assert dominant(f) == (F(2), F(4))
    assert dominant_ratio(f) == 4
    assert dominant_ratio(parse_form("5^n")) is None
    g = parse_form("9^n + 2*3^n + 1")
    assert dominant(g) == (F(1), F(9))
    assert dominant_ratio(g) == 3


def test_dominant_of_zero_form_errors():
    with pytest.raises(ValueError, match="zero form"):
        dominant(ZERO)


def _tail_oracle(f: PowerSumForm) -> PowerSumForm:
    # Independent check: f must equal a1*b1^n * (1 + tail) exactly.
    a1, b1 = dominant(f)
    tail = relative_tail(f)
    rebuilt = mul(normalize([(a1, b1)]), add(constant(1), tail))
    assert rebuilt == f
    return tail


def test_relative_tail_title_family():
    tail = _tail_oracle(parse_form("2*4^n + 1"))
    assert tail == normalize([(F(1, 2), F(1, 4))])


def test_relative_tail_single_term_is_zero():
    assert _tail_oracle(parse_form("5^n")) == ZERO


def test_relative_tail_three_terms():
    tail = _tail_oracle(parse_form("9^n + 2*3^n + 1"))
    assert tail == normalize([(2, F(1, 3)), (1, F(1, 9))])


def test_relative_tail_requires_positive_leading():
    with pytest.raises(ValueError, match="positive"):
        relative_tail(parse_form("-2*4^n + 1"))


def test_classify():
    c = classify(parse_form("2*4^n + 1"))
    assert c == (True, True)
    c = classify(normalize([(F(1, 2), 4)]))
    assert c.integral_bases and not c.integral_coefficients
    c = classify(normalize([(2, F(9, 4))]))
    assert not c.integral_bases and not c.integral_coefficients


# --- text syntax -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,terms",
    [
        ("2*4^n + 1", ((F(2), F(4)), (F(1), F(1)))),
        ("-3*(9/4)^n", ((F(-3), F(9, 4)),)),
        ("16^n + (1/4)*4^n - 1/32", ((F(1), F(16)), (F(1, 4), F(4)), (F(-1, 32), F(1)))),
        ("4^n+2^n+1", ((F(1), F(4)), (F(1), F(2)), (F(1), F(1)))),
        ("0", ()),
        ("1/2*4^n", ((F(1, 2), F(4)),)),
    ],
)
def test_parse_form(text, terms):
    assert parse_form(text) == terms


@pytest.mark.parametrize("bad", ["", "4^n +", "2**4^n", "x^n", "4^m", "(2/0)^n"])
def test_parse_form_rejects_garbage(bad):
    with pytest.raises(FormSyntaxError):
        parse_form(bad)


@pytest.mark.parametrize("text", ["1/0", "(1/0)^n", "(2/0)^n", "(2/0)*3^n", "4^n+(0/0)^n",
                                  "2^n - 1/0", "(0/0)"])
def test_parse_form_refuses_a_zero_denominator(text):
    with pytest.raises(FormSyntaxError) as err:
        parse_form(text)
    assert str(err.value) == f"zero denominator in {text!r}"


def test_format_form_canonical():
    assert format_form(parse_form("2*4^n + 1")) == "2*4^n + 1"
    assert format_form(parse_form("-3*(9/4)^n")) == "-3*(9/4)^n"
    assert format_form(ZERO) == "0"
    assert format_form(normalize([(F(1, 4), 4), (1, 16), (F(-1, 32), 1)])) == (
        "16^n + (1/4)*4^n - 1/32"
    )


# --- property tests --------------------------------------------------------

_coefs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_bases = st.fractions(min_value=F(1, 4), max_value=9, max_denominator=4)
_forms = st.lists(st.tuples(_coefs, _bases), max_size=4).map(normalize)
_small_n = st.integers(min_value=0, max_value=6)


@given(_forms, _forms, _small_n)
def test_add_mul_commute(f, g, n):
    assert add(f, g) == add(g, f)
    assert mul(f, g) == mul(g, f)
    assert eval_exact(add(f, g), n) == eval_exact(f, n) + eval_exact(g, n)
    assert eval_exact(mul(f, g), n) == eval_exact(f, n) * eval_exact(g, n)


@settings(max_examples=60)
@given(_forms, _forms, _forms, _small_n)
def test_ring_laws(f, g, h, n):
    assert add(add(f, g), h) == add(f, add(g, h))
    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
    lhs = eval_exact(mul(f, add(g, h)), n)
    assert lhs == eval_exact(f, n) * (eval_exact(g, n) + eval_exact(h, n))


@given(st.lists(st.tuples(_coefs, _bases), max_size=4), _small_n)
def test_normalize_preserves_value_and_is_idempotent(raw, n):
    f = normalize(raw)
    assert normalize(f) == f
    assert eval_exact(f, n) == sum((c * b**n for c, b in raw), F(0))


@given(_forms, st.integers(min_value=0, max_value=1), _small_n)
def test_compose_affine_matches_substitution(f, j, n):
    assert eval_exact(compose_affine(f, j), n) == eval_exact(f, 2 * n + j)


@given(_forms, _small_n)
def test_square_matches_squared_value(f, n):
    assert eval_exact(mul(f, f), n) == eval_exact(f, n) ** 2


@given(_forms)
def test_parse_round_trips_printer(f):
    assert parse_form(format_form(f)) == f


_thresholds = st.fractions(min_value=F(1, 8), max_value=9, max_denominator=8)


# Integer-base forms with a positive leading coefficient: what the square
# root builders take.
_root_forms = st.lists(
    st.tuples(_coefs, st.integers(min_value=1, max_value=9)), min_size=1, max_size=4
).map(normalize).filter(lambda h: h and dominant(h)[0] > 0)


@settings(max_examples=200)
@given(st.lists(st.tuples(_coefs, _bases), max_size=6), _forms, _coefs,
       st.integers(min_value=0, max_value=1), _thresholds, st.booleans(), _root_forms)
def test_builders_return_canonical_forms(raw, g, c, j, threshold, keep_equal, h):
    f = normalize(raw)
    outs = [f, scale(f, c), compose_affine(f, j), _prune(f, threshold, keep_equal),
            mul(f, g), add(f, g)]
    if f and dominant(f)[0] > 0:
        outs.append(relative_tail(f))
    # The series form and the extracted root skip normalize too; h*h + g has
    # a square leading term unless g outgrows h*h.
    with contextlib.suppress(ResourceLimitError):  # a series past its caps
        outs.append(sqrt_approximation(h, j).series_form)
        root = _extract_root(add(mul(h, h), g))
        if root is not None:
            outs.append(root)
    # The checking constructor accepts each builder's terms as they are, and
    # each form survives a pickle round trip as a PowerSumForm.
    for out in outs:
        assert type(out) is PowerSumForm
        assert PowerSumForm(tuple(out)) == out
        back = pickle.loads(pickle.dumps(out))
        assert type(back) is PowerSumForm and back == out


@given(_forms, _coefs)
def test_scale_matches_value(f, c):
    assert eval_exact(scale(f, c), 3) == c * eval_exact(f, 3)


@given(_forms)
def test_dominant_identity_on_positive_leading_forms(f):
    if f.is_zero or dominant(f)[0] <= 0:
        return
    a1, b1 = dominant(f)
    assert mul(normalize([(a1, b1)]), add(constant(1), relative_tail(f))) == f


_rational_forms = st.lists(
    st.tuples(st.fractions(min_value=-50, max_value=50, max_denominator=30),
              st.fractions(min_value=F(1, 30), max_value=40, max_denominator=30)),
    max_size=5).map(normalize)


@settings(max_examples=60)
@given(_rational_forms)
def test_eval_exact_matches_per_term_fractions(f):
    for n in range(65):
        value = eval_exact(f, n)
        assert type(value) is Fraction and value == per_term_eval(f, n)
        if value.denominator == 1:
            assert eval_int(f, n) == value
        else:
            with pytest.raises(ValueError) as err:
                eval_int(f, n)
            assert str(err.value) == f"f({n}) = {per_term_eval(f, n)} is not an integer"


def test_eval_exact_of_the_zero_form():
    for n in range(65):
        assert eval_exact(ZERO, n) == per_term_eval(ZERO, n) == 0
        assert eval_int(ZERO, n) == 0
