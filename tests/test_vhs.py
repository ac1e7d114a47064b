"""Graded block bookkeeping of circle-fixed bundles.

The closed energy form is checked against the tail recursion exhaustively
on small data, and the grading-element weights against their defining
properties (trace zero, bracket eigenvalues) rather than stored tables.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistorsec.scalars import QQi
from twistorsec.vhs import (VhsBlockData, det_exponent, energy_closed,
                            energy_recursive, grades, grafting_data,
                            hyperhol_degree, random_vhs, xi_matrix, xi_weights)


def balanced(degs):
    return tuple(degs) + (-sum(degs),)


@st.composite
def vhs_data(draw, lmax=6, rmax=4, dmax=30):
    l = draw(st.integers(min_value=1, max_value=lmax))
    ranks = draw(st.lists(st.integers(1, rmax), min_size=l, max_size=l))
    head = draw(st.lists(st.integers(-dmax, dmax), min_size=l - 1, max_size=l - 1))
    return VhsBlockData(tuple(ranks), balanced(head))


def test_energy_closed_equals_recursion_exhaustively():
    # Every degree vector with l <= 4 and |d_k| <= 2 (the acceptance run
    # widens the bound; this keeps the unit test quick).
    for l in range(1, 5):
        for head in itertools.product(range(-2, 3), repeat=l - 1):
            v = VhsBlockData((1,) * l, balanced(head))
            assert energy_closed(v) == energy_recursive(v)


@given(vhs_data())
def test_energy_closed_equals_recursion_random(v):
    assert energy_closed(v) == energy_recursive(v)


def test_energy_values():
    assert energy_closed(VhsBlockData((2,), (0,))) == 0
    assert energy_closed(VhsBlockData((1, 1, 1), (2, 0, -2))) == -4
    for g in range(2, 11):
        uni = VhsBlockData((1, 1), (g - 1, 1 - g))
        assert energy_closed(uni) == 1 - g


def test_energy_with_rational_degrees():
    v = VhsBlockData((1, 2), (Fraction(3, 2), Fraction(-3, 2)))
    assert energy_closed(v) == Fraction(-3, 2)
    assert energy_recursive(v) == Fraction(-3, 2)


def test_hyperhol_degree_examples():
    for g in range(2, 11):
        uni = VhsBlockData((1, 1), (g - 1, 1 - g))
        inf = VhsBlockData((2,), (0,))
        assert hyperhol_degree(uni, inf) == 1 - g
        assert hyperhol_degree(uni, inf) != 0


def test_hyperhol_degree_requires_matching_rank():
    with pytest.raises(ValueError):
        hyperhol_degree(VhsBlockData((1, 1), (1, -1)), VhsBlockData((3,), (0,)))


@given(vhs_data(lmax=5, rmax=3, dmax=10))
def test_xi_weights_properties(v):
    weights = xi_weights(v)
    assert len(weights) == v.l
    # Consecutive weights differ by one, so brackets scale by the grade.
    for a, b in zip(weights, weights[1:]):
        assert b - a == 1
    # Rank-weighted sum vanishes: xi is trace-free, det g(t) = t^0.
    assert sum(r * w for r, w in zip(v.ranks, weights)) == 0
    assert det_exponent(v) == 0


def test_xi_weights_rank_one_pair():
    # For ranks (1, 1): m = 1/2, weights (-1/2, 1/2).
    v = VhsBlockData((1, 1), (1, -1))
    assert xi_weights(v) == (Fraction(-1, 2), Fraction(1, 2))


@given(vhs_data(lmax=4, rmax=3, dmax=5), st.data())
def test_ad_weight_equals_grade(v, data):
    i = data.draw(st.integers(1, v.l))
    j = data.draw(st.integers(1, v.l))
    # Conjugation by g(t) scales the block (i, j) by t to the power
    # weight_i - weight_j, which is its grade.
    assert xi_weights(v)[i - 1] - xi_weights(v)[j - 1] == i - j


def test_grade_table_layout():
    # Ranks (2, 1, 3): the entry (r, c) sits in the block from source block
    # i (holding column c) to target block j (holding row r), of grade i - j.
    v = VhsBlockData((2, 1, 3), (4, -1, -3))
    assert v.n == 6 and v.l == 3
    assert grades(v) == [[0, 0, 1, 2, 2, 2],
                         [0, 0, 1, 2, 2, 2],
                         [-1, -1, 0, 1, 1, 1],  # source block 1 -> target block 2
                         [-2, -2, -1, 0, 0, 0],
                         [-2, -2, -1, 0, 0, 0],
                         [-2, -2, -1, 0, 0, 0]]


def test_xi_bracket_scales_entries_by_grade():
    # [m, xi] = m xi - xi m scales each grade-k entry by k, with the products
    # taken as numpy object arrays, independently of the library's matrices.
    v = VhsBlockData((1, 1), (1, -1))
    zero = QQi(0)
    xm = np.array(xi_matrix(v), dtype=object)
    lower = np.array([[zero, zero], [QQi(3), zero]], dtype=object)  # grade -1
    upper = np.array([[zero, QQi(5)], [zero, zero]], dtype=object)  # grade 1
    assert (lower @ xm - xm @ lower).tolist() == [[zero, zero], [QQi(-3), zero]]
    assert (upper @ xm - xm @ upper).tolist() == [[zero, QQi(5)], [zero, zero]]


def grade_positions(v, k):
    """All (i, j, rows, cols) block positions of grading weight k: the block
    (i, j) maps the i-th summand to the j-th, so it has r_j rows and r_i
    columns."""
    return [(i, i - k, v.ranks[i - k - 1], v.ranks[i - 1])
            for i in range(1, v.l + 1) if 1 <= i - k <= v.l]


@given(vhs_data(lmax=4, rmax=3, dmax=5))
@settings(max_examples=40)
def test_grade_table_agrees_with_grade_positions(v):
    # The blocks of grade_positions(v, k), laid out at the block offsets,
    # cover exactly the entries whose grade in the table is k.
    offsets = [sum(v.ranks[:i]) for i in range(v.l)]
    table = grades(v)
    for k in range(-v.l, v.l + 1):
        covered = {(offsets[j - 1] + r, offsets[i - 1] + c)
                   for i, j, rows, cols in grade_positions(v, k)
                   for r in range(rows) for c in range(cols)}
        assert covered == {(r, c) for r in range(v.n) for c in range(v.n)
                           if table[r][c] == k}


@given(vhs_data(lmax=4, rmax=2, dmax=5), st.data())
@settings(max_examples=40)
def test_xi_bracket_matches_matrix_commutator(v, data):
    # M Xi - Xi M = k M for a random grade-k matrix M, Xi = xi_matrix(v).
    k = data.draw(st.integers(-(v.l - 1), v.l - 1))
    m = np.array([[QQi(data.draw(st.integers(-9, 9))) if grade == k else QQi(0)
                   for grade in row] for row in grades(v)], dtype=object)
    xm = np.array(xi_matrix(v), dtype=object)
    assert (m @ xm - xm @ m).tolist() == [[x * QQi(k) for x in row]
                                          for row in m.tolist()]


def test_grafting_data():
    v = grafting_data(3)
    assert v.ranks == (1, 1) and v.degrees == (2, -2)
    assert energy_closed(v) == -2
    with pytest.raises(ValueError):
        grafting_data(1)


def test_validation_errors():
    with pytest.raises(ValueError):
        VhsBlockData((), ())
    with pytest.raises(ValueError):
        VhsBlockData((0, 1), (1, -1))
    with pytest.raises(ValueError):
        VhsBlockData((1, 1), (1,))
    with pytest.raises(ValueError):
        VhsBlockData((1, 1), (1, -2))
    with pytest.raises(ValueError):
        VhsBlockData((1,), (object(),))


def test_json_round_trip():
    v = VhsBlockData((1, 2), (Fraction(3, 2), Fraction(-3, 2)),
                     label="half", pair="partner")
    doc = v.to_json()
    assert doc["degrees"] == ["3/2", "-3/2"]
    back = VhsBlockData.from_json(doc)
    assert back == v
    plain = VhsBlockData((1, 1), (1, -1), label="x")
    assert "pair" not in plain.to_json()
    assert VhsBlockData.from_json(plain.to_json()) == plain


def test_random_vhs_is_deterministic_and_valid():
    a = random_vhs(random.Random(4))
    b = random_vhs(random.Random(4))
    assert a == b
    assert sum(a.degrees) == 0
