"""Gaussian-rational scalar layer: field axioms, parsing, serialization."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from twistorsec.scalars import (I, QQi, conj, random_nonzero_qqi, random_qqi,
                                scalar_from_json, scalar_to_json)

rationals = st.fractions(max_denominator=50)
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
    assert conj(conj(a)) == a
    assert a * conj(a) == QQi(a.abs2())
    assert conj(a) == QQi(a.re, -a.im)


def test_i_squares_to_minus_one():
    assert I * I == QQi(-1)
    assert I ** 4 == QQi(1)


@given(qqis, st.integers(min_value=0, max_value=12))
def test_powers_match_repeated_product(a, n):
    expected = QQi(1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@given(qqis)
def test_string_round_trip(a):
    assert QQi.parse(str(a)) == a


@pytest.mark.parametrize("text, value", [
    ("0", QQi(0)),
    ("-3/2", QQi(Fraction(-3, 2))),
    ("0+3i", QQi(0, 3)),
    ("1/2-3/4i", QQi(Fraction(1, 2), Fraction(-3, 4))),
    ("0-1i", QQi(0, -1)),
    ("7", QQi(7)),
])
def test_parse_known_forms(text, value):
    assert QQi.parse(text) == value


def test_parse_rejects_garbage():
    for bad in ("i", "1+i", "2.5", "one"):
        with pytest.raises(ValueError):
            QQi.parse(bad)


@given(qqis)
def test_json_round_trip_exact(a):
    doc = scalar_to_json(a)
    assert len(doc) == 4
    assert scalar_from_json(doc) == a


@given(qqis, rationals)
def test_mixed_arithmetic_with_exact_types(a, r):
    assert a + r == a + QQi(r)
    assert r * a == QQi(r) * a
    assert a - 2 == a - QQi(2)


def test_float_and_complex_are_rejected():
    with pytest.raises(TypeError):
        QQi(1) * 0.5
    with pytest.raises(TypeError):
        QQi(1) + 1j
    with pytest.raises(ValueError):
        scalar_from_json([0.5, 3.0])


def test_equality_and_hash_consistency():
    assert QQi(2) == 2
    assert QQi(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(QQi(2)) == hash(QQi(2))
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
    st.fractions(max_denominator=10 ** 6))
pairs = st.tuples(parts, parts)
reals = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=100))


def _assert_matches(z, pair):
    """``z`` is a QQi in normal form whose value is the oracle ``pair``."""
    assert type(z) is QQi
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    if not (a or b):
        assert (a, b, d) == (0, 0, 1)
    assert (Fraction(a, d), Fraction(b, d)) == pair
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == pair


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
    _assert_matches(conj(z), (x[0], -x[1]))
    _assert_matches(z - z, (0, 0))
    abs2 = z.abs2()
    assert type(abs2) is Fraction and abs2 == x[0] * x[0] + x[1] * x[1]
    assert bool(z) == (x != (0, 0))


@given(pairs, reals, st.sampled_from(sorted(_OPS)))
def test_kernel_mixed_operands_on_either_side(x, q, op):
    kernel, oracle = _OPS[op]
    r = (Fraction(q), Fraction(0))
    if q or op != "/":
        _assert_matches(kernel(QQi(*x), q), oracle(x, r))
    if x != (0, 0) or op != "/":
        _assert_matches(kernel(q, QQi(*x)), oracle(r, x))


@given(reals)
def test_kernel_real_values_equal_and_hash_like_their_source(q):
    z = QQi(q)
    _assert_matches(z, (Fraction(q), 0))
    assert z == q and q == z
    assert hash(z) == hash(q)
    assert QQi(q, 0) == q and QQi(Fraction(q)) == q


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9))
def test_kernel_integer_constructor(n, m):
    _assert_matches(QQi(n, m), (Fraction(n), Fraction(m)))


@given(pairs)
def test_kernel_text_and_json_round_trips(x):
    z = QQi(*x)
    for back in (QQi.parse(str(z)), QQi(str(z)), eval(repr(z), {"QQi": QQi}),
                 scalar_from_json(scalar_to_json(z)), QQi(z)):
        _assert_matches(back, x)
    assert scalar_to_json(z) == [x[0].numerator, x[0].denominator,
                                 x[1].numerator, x[1].denominator]
    assert repr(QQi(Fraction(1, 2), Fraction(3, 4))) == "QQi('1/2+3/4i')"


def test_kernel_constructor_forms():
    _assert_matches(QQi(QQi(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(5, 2)))
    _assert_matches(QQi("3/6"), (Fraction(1, 2), Fraction(0)))
    _assert_matches(QQi(True), (Fraction(1), Fraction(0)))
    _assert_matches(QQi(Fraction(2, 4), Fraction(-6, 8)) * 4, (Fraction(2), Fraction(-3)))
    with pytest.raises(AttributeError):
        QQi(1).re = 2
