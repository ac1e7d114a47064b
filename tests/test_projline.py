"""Projective-line layer: charts, Wronskian, and the vector-field sl2.

The structure constants and the Killing values are re-derived here with
sympy from the defining vector fields, independently of the library code.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from twistorsec.projline import (E, F, H, PolySection, Sl2Element, killing,
                                 sl2_bracket, wronskian, wronskian_infinity_chart)
from twistorsec.scalars import QQi

rationals = st.builds(Fraction, st.integers(), st.integers(1, 20))
qqis = st.builds(QQi, rationals, rationals)
sl2s = st.builds(Sl2Element, qqis, qqis, qqis)


def ad_matrix(A: Sl2Element):
    """Matrix of ad_A = [A, -] in the basis (e, h, f), columns = images."""
    cols = [sl2_bracket(A, basis) for basis in (E, H, F)]
    return tuple(zip(*((c.a_e, c.a_h, c.a_f) for c in cols)))


def test_bracket_matches_vector_field_oracle():
    # [a d/dt, b d/dt] = (a b' - a' b) d/dt, computed symbolically.
    t = sympy.symbols("t")
    ae, ah, af, be, bh, bf = sympy.symbols("ae ah af be bh bf")
    a_poly = ae - 2 * ah * t - af * t ** 2
    b_poly = be - 2 * bh * t - bf * t ** 2
    oracle = sympy.expand(a_poly * sympy.diff(b_poly, t)
                          - sympy.diff(a_poly, t) * b_poly)
    out = sl2_bracket(Sl2Element(ae, ah, af), Sl2Element(be, bh, bf))
    model = sympy.expand(out.a_e - 2 * out.a_h * t - out.a_f * t ** 2)
    assert sympy.simplify(oracle - model) == 0


def test_basis_brackets_are_standard():
    assert sl2_bracket(H, E) == Sl2Element(QQi(2), QQi(0), QQi(0))
    assert sl2_bracket(H, F) == Sl2Element(QQi(0), QQi(0), QQi(-2))
    assert sl2_bracket(E, F) == Sl2Element(QQi(0), QQi(1), QQi(0))


@given(sl2s, sl2s, sl2s)
def test_jacobi_identity(a, b, c):
    total = (sl2_bracket(a, sl2_bracket(b, c))
             + sl2_bracket(b, sl2_bracket(c, a))
             + sl2_bracket(c, sl2_bracket(a, b)))
    assert total == Sl2Element(QQi(0), QQi(0), QQi(0))


@given(sl2s, sl2s)
def test_bracket_antisymmetry(a, b):
    assert sl2_bracket(a, b) + sl2_bracket(b, a) == Sl2Element(QQi(0), QQi(0), QQi(0))


def test_killing_values_from_adjoint():
    assert killing(H, H) == QQi(8)
    assert killing(E, F) == QQi(4)
    assert killing(F, E) == QQi(4)
    assert killing(E, E) == QQi(0)
    assert killing(F, F) == QQi(0)
    assert killing(H, E) == QQi(0)
    assert killing(H, F) == QQi(0)


def test_killing_matches_symbolic_trace():
    # trace(ad_A ad_B) recomputed through sympy matrices.
    ae, ah, af, be, bh, bf = sympy.symbols("ae ah af be bh bf")
    a = Sl2Element(ae, ah, af)
    b = Sl2Element(be, bh, bf)
    ma = sympy.Matrix(3, 3, lambda i, j: ad_matrix(a)[i][j])
    mb = sympy.Matrix(3, 3, lambda i, j: ad_matrix(b)[i][j])
    oracle = sympy.expand((ma * mb).trace())
    assert sympy.simplify(oracle - sympy.expand(killing(a, b))) == 0


@given(sl2s, sl2s, sl2s)
def test_killing_invariance(a, b, c):
    assert killing(sl2_bracket(a, b), c) == killing(a, sl2_bracket(b, c))


@given(st.integers(min_value=0, max_value=6), st.data())
def test_chart_involution_is_an_involution(k, data):
    coeffs = data.draw(st.lists(qqis, min_size=k + 1, max_size=k + 1))
    p = PolySection(coeffs)
    assert p.chart_involution().chart_involution() == p


def _horner(coeffs, t):
    """c_0 + c_1*t + ... + c_k*t^k by Horner's rule."""
    value = QQi(0)
    for c in reversed(coeffs):
        value = value * t + c
    return value


@given(st.integers(min_value=0, max_value=6), st.data())
def test_chart_involution_value_law(k, data):
    coeffs = data.draw(st.lists(qqis, min_size=k + 1, max_size=k + 1))
    t = data.draw(qqis.filter(bool))
    p = PolySection(coeffs)
    t_power_k = _horner((QQi(0),) * k + (QQi(1),), t)
    assert (_horner(p.chart_involution().coeffs, t)
            == t_power_k * _horner(p.coeffs, QQi(1) / t))


def test_wronskian_hand_value():
    p = PolySection((QQi(1), QQi(2)))
    q = PolySection((QQi(3), QQi(4)))
    assert wronskian(p, q) == QQi(-2)
    assert wronskian(q, p) == QQi(2)
    assert wronskian(p, p) == QQi(0)


@given(st.lists(qqis, min_size=4, max_size=4))
def test_wronskian_chart_independence(vals):
    p = PolySection(vals[:2])
    q = PolySection(vals[2:])
    assert wronskian_infinity_chart(p, q) == wronskian(p, q)


def test_wronskian_rejects_higher_degree():
    with pytest.raises(ValueError):
        wronskian(PolySection((1, 2, 3)), PolySection((1, 2)))


def test_poly_section_validation():
    # The degree bound is read off the coefficients: k + 1 of them for O(k).
    assert PolySection((QQi(1), QQi(2), QQi(3))).degree_bound == 2
    assert PolySection([QQi(5)]).coeffs == (QQi(5),)
    with pytest.raises(ValueError, match="at least one coefficient"):
        PolySection(())
