"""Gaussian-rational scalar layer: field axioms, string form, serialization."""

import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from twistorsec import scalars
from twistorsec.scalars import (I, QQi, draw, random_nonzero_qqi, random_qqi,
                                random_term, scalar_from_json, scalar_to_json)
from twistorsec.torus_forms import FourierScalar

from qqi_parts import fraction_parts

rationals = st.builds(Fraction, st.integers(), st.integers(1, 50))
qqis = st.builds(QQi, rationals, rationals)


@given(qqis, qqis, qqis)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qqis)
def test_additive_structure(a):
    zero = QQi(0)
    assert a + zero == a
    assert a - a == zero
    assert -(-a) == a


@given(qqis)
def test_multiplicative_inverse(a):
    if a:
        assert a * (QQi(1) / a) == QQi(1)
    else:
        with pytest.raises(ZeroDivisionError):
            QQi(1) / a


@given(qqis)
def test_conjugation(a):
    assert a.conjugate().conjugate() == a
    re, im = fraction_parts(a)
    assert a * a.conjugate() == QQi(re * re + im * im)
    assert a.conjugate() == QQi(re, -im)


def test_i_squares_to_minus_one():
    assert I * I == QQi(-1)


@pytest.mark.parametrize("text, value", [
    ("0", QQi(0)),
    ("-3/2", QQi(Fraction(-3, 2))),
    ("0+3i", QQi(0, 3)),
    ("1/2-3/4i", QQi(Fraction(1, 2), Fraction(-3, 4))),
    ("0-1i", QQi(0, -1)),
    ("7", QQi(7)),
])
def test_str_known_forms(text, value):
    assert str(value) == text


# The text and JSON forms, against str(Fraction) and the Fraction ints.
numerators = st.one_of(st.just(0), st.integers(-60, 60), st.integers(),
                       st.integers(-10 ** 80, 10 ** 80))
denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10 ** 40))


def _fraction_text(re, im):
    """The text of re + im*i from str(Fraction): the real part, then, unless
    it is zero, the imaginary part with its sign and an i."""
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


@seed(17)
@settings(max_examples=300)
@given(numerators, numerators, denominators)
@example(0, 3, 1)                     # zero real part
@example(5, 0, 3)                     # zero imaginary part
@example(1, -3, 4)                    # negative imaginary part
@example(2, 1, 4)                     # the real part reduces, the whole does not
@example(6, -4, 2)                    # denominator 1 after reducing
@example(10 ** 50 + 1, -10 ** 50, 10 ** 49)
def test_text_and_json_match_fraction(a, b, d):
    re, im = Fraction(a, d), Fraction(b, d)
    z = QQi(re, im)
    assert str(z) == _fraction_text(re, im)
    assert repr(z) == f"QQi('{_fraction_text(re, im)}')"
    assert scalar_to_json(z) == [re.numerator, re.denominator,
                                 im.numerator, im.denominator]


def test_text_past_the_digit_limit_raises_as_fraction():
    # A dataset's energy is rejected on this ValueError (report._check_printable).
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    big = 10 ** limit
    for re, im in [(Fraction(big), Fraction(0)), (Fraction(1), Fraction(-big, 3)),
                   (Fraction(1, big), Fraction(1))]:
        with pytest.raises(ValueError):
            _fraction_text(re, im)
        with pytest.raises(ValueError):
            str(QQi(re, im))


@given(qqis)
def test_json_round_trip_exact(a):
    doc = scalar_to_json(a)
    assert len(doc) == 4
    assert scalar_from_json(doc) == a


@pytest.mark.parametrize("make", [
    lambda: QQi(1) + 1,
    lambda: 1 * QQi(1),
    lambda: QQi(1) * Fraction(1, 2),
    lambda: FourierScalar.const(QQi(1)) * 2,
    lambda: QQi(0.1),
    lambda: QQi("1/3"),
    lambda: QQi(True),
], ids=["qqi+int", "int*qqi", "qqi*fraction", "series*int", "float-part",
        "str-part", "bool-part"])
def test_other_operands_raise_type_error(make):
    # QQi is the only scalar that meets QQi arithmetic or builds a QQi part.
    with pytest.raises(TypeError):
        make()


def test_float_and_complex_are_rejected():
    with pytest.raises(TypeError):
        QQi(1) * 0.5
    with pytest.raises(TypeError):
        QQi(1) + 1j
    with pytest.raises(ValueError):
        scalar_from_json([0.5, 3.0])


def test_scalar_payload_errors_echo_a_short_payload():
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) coefficient \[0, 1, ") as info:
        scalar_from_json(list(range(100_000)), "entry (0, 0) coefficient")
    assert len(str(info.value)) < 300


def test_negation_and_conjugation_are_built_without_a_gcd(monkeypatch):
    # Negating a part of a value in normal form keeps gcd(a, b, d) = 1 and
    # d > 0, so -x and x.conjugate() need no reduction.
    parts = [(Fraction(3, 4), Fraction(-5, 6)), (Fraction(-7, 2), 0), (0, 1), (0, 0),
             (6, Fraction(9, 4)), (Fraction(-10, 3), Fraction(2, 9))]
    cases = [(QQi(re, im), QQi(-re, -im), QQi(re, -im)) for re, im in parts]

    def refuse(*args):
        raise AssertionError(f"reduced {args}")

    monkeypatch.setattr(scalars, "_make", refuse)
    monkeypatch.setattr(scalars, "gcd", refuse)
    for x, negated, conjugated in cases:
        assert -x == negated and x.conjugate() == conjugated
        assert (-x)._d == x.conjugate()._d == x._d > 0


def test_equality_and_hash_consistency():
    # Equal values hash alike; a QQi never equals an int or a Fraction.
    assert QQi(Fraction(4, 2)) == QQi(2) and hash(QQi(Fraction(4, 2))) == hash(QQi(2))
    assert QQi(2) != 2 and 2 != QQi(2)
    assert QQi(Fraction(1, 2)) != Fraction(1, 2)
    assert QQi(1, 1) != QQi(1, -1)


def test_random_generators_are_exact_and_seeded():
    import random

    a = random_qqi(random.Random(5))
    b = random_qqi(random.Random(5))
    assert a == b and isinstance(a, QQi)
    assert bool(random_nonzero_qqi(random.Random(0)))


# -- the (a + b*i)/d kernel against a pair-of-Fractions oracle -----------------
#
# The oracle keeps a Gaussian rational as its (re, im) pair of Fractions and
# uses only the textbook formulas; it does not touch the kernel.


def _o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _o_div(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n2, (x[1] * y[0] - x[0] * y[1]) / n2)


_OPS = {"+": (lambda a, b: a + b, _o_add), "-": (lambda a, b: a - b, _o_sub),
        "*": (lambda a, b: a * b, _o_mul), "/": (lambda a, b: a / b, _o_div)}

# Denominators from a small set make the equal-denominator path of + and -
# common; unbounded fractions exercise the cross-multiplied one.
parts = st.one_of(
    st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 12])),
    st.builds(Fraction, st.integers(), st.integers(1, 10 ** 6)))
pairs = st.tuples(parts, parts)
reals = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                  st.builds(Fraction, st.integers(), st.integers(1, 100)))


def _assert_matches(z, pair):
    """``z`` is a QQi in normal form whose value is the oracle ``pair``."""
    assert type(z) is QQi
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    if not (a or b):
        assert (a, b, d) == (0, 0, 1)
    assert (Fraction(a, d), Fraction(b, d)) == pair


@given(pairs, pairs, st.sampled_from(sorted(_OPS)))
def test_kernel_matches_fraction_oracle(x, y, op):
    kernel, oracle = _OPS[op]
    if op == "/" and y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            QQi(*x) / QQi(*y)
        return
    _assert_matches(kernel(QQi(*x), QQi(*y)), oracle(x, y))


@given(pairs)
def test_kernel_unary_operations(x):
    z = QQi(*x)
    _assert_matches(z, x)
    _assert_matches(-z, (-x[0], -x[1]))
    _assert_matches(z.conjugate(), (x[0], -x[1]))
    _assert_matches(z - z, (0, 0))
    _assert_matches(z * z.conjugate(), (x[0] * x[0] + x[1] * x[1], 0))
    assert bool(z) == (x != (0, 0))


@given(pairs, reals, st.sampled_from(sorted(_OPS)))
def test_kernel_mixed_operands_on_either_side(x, q, op):
    # An int or Fraction operand raises on either side and never equals a
    # QQi; QQi(q) is its exact value.
    kernel = _OPS[op][0]
    with pytest.raises(TypeError):
        kernel(QQi(*x), q)
    with pytest.raises(TypeError):
        kernel(q, QQi(*x))
    _assert_matches(QQi(q), (Fraction(q), Fraction(0)))
    assert QQi(q) != q and q != QQi(q)


def test_random_qqi_matches_its_fraction_form():
    # random_qqi draws a, b, c, e in this order and returns a/b + (c/e)i,
    # with denominators b, e in 1..4.
    import random

    rng, oracle = random.Random(11), random.Random(11)
    for span in (9, 1, 0, 1000):
        for _ in range(2000):
            z = random_qqi(rng, span)
            a, b = oracle.randint(-span, span), oracle.randint(1, 4)
            c, e = oracle.randint(-span, span), oracle.randint(1, 4)
            _assert_matches(z, (Fraction(a, b), Fraction(c, e)))
            assert z == QQi(Fraction(a, b), Fraction(c, e))
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("lo, hi", [
    (3, 3), (-2, -2),            # one value: n = 1
    (1, 4), (0, 7), (-8, 7),     # n = 2^k
    (1, 5), (0, 16), (-2, 2),    # n = 2^k + 1
    (-9, 9), (-6, 6), (-20, 20), (1, 3),
])
def test_draw_is_randint(lo, hi):
    # The same values and the same generator state as randint, draw by draw.
    import random

    ours, theirs = random.Random(lo * 1000 + hi), random.Random(lo * 1000 + hi)
    for i in range(3000):
        assert draw(ours, lo, hi) == theirs.randint(lo, hi)
        if i % 500 == 0:
            assert ours.getstate() == theirs.getstate()
    assert ours.getstate() == theirs.getstate()


def test_draw_rejects_an_empty_range():
    import random

    rng = random.Random(0)
    with pytest.raises(ValueError, match=re.escape("empty range for draw (2, 1)")):
        draw(rng, 2, 1)
    with pytest.raises(ValueError, match=re.escape("empty range for draw (1, -1)")):
        random_qqi(rng, -1)
    with pytest.raises(ValueError, match=re.escape("empty range for draw (1, -1)")):
        random_term(rng, -1)


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9))
def test_kernel_integer_constructor(n, m):
    _assert_matches(QQi(n, m), (Fraction(n), Fraction(m)))


@given(pairs)
def test_kernel_text_and_json_round_trips(x):
    z = QQi(*x)
    _assert_matches(scalar_from_json(scalar_to_json(z)), x)
    assert scalar_to_json(z) == [x[0].numerator, x[0].denominator,
                                 x[1].numerator, x[1].denominator]
    assert repr(QQi(Fraction(1, 2), Fraction(3, 4))) == "QQi('1/2+3/4i')"


def test_kernel_constructor_forms():
    _assert_matches(QQi(Fraction(3, 6)), (Fraction(1, 2), Fraction(0)))
    _assert_matches(QQi(Fraction(2), 7), (Fraction(2), Fraction(7)))
    _assert_matches(QQi(Fraction(2, 4), Fraction(-6, 8)) * QQi(4),
                    (Fraction(2), Fraction(-3)))
    with pytest.raises(AttributeError):
        QQi(1).re = 2
