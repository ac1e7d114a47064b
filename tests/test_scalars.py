"""Gaussian-rational scalar layer: field axioms, parsing, serialization."""

from fractions import Fraction

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
