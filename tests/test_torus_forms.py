"""Exact Fourier calculus on the torus.

The derivative symbols are re-derived with sympy from the character
functions; everything else is checked through algebraic identities
(Leibniz, Stokes, wedge signs, adjoint involution) on random exact data.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from twistorsec.scalars import QQi
from twistorsec.torus_forms import (FS_ONE, FS_ZERO, FourierScalar,
                                    MatrixForm, commutator, conj_transpose,
                                    dbar, del_op, integrate_trace,
                                    random_fourier_scalar, random_matrix_form,
                                    trace, wedge, wedge_bracket)

rationals = st.fractions(max_denominator=8)
qqis = st.builds(QQi, rationals, rationals)
mode_keys = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
scalars_st = st.builds(FourierScalar,
                       st.dictionaries(mode_keys, qqis, max_size=4))


def matrix_forms(size=2, bidegree=(0, 0)):
    return st.builds(
        lambda rows: MatrixForm(bidegree, size, rows),
        st.lists(st.lists(scalars_st, min_size=size, max_size=size),
                 min_size=size, max_size=size))


# -- derivative symbols, re-derived -------------------------------------------


def test_derivative_symbols_match_sympy():
    x, y = sympy.symbols("x y", real=True)
    m, n = sympy.symbols("m n", integer=True)
    chi = sympy.exp(2 * sympy.pi * sympy.I * (m * x + n * y))
    d_z = (sympy.diff(chi, x) - sympy.I * sympy.diff(chi, y)) / 2
    d_zbar = (sympy.diff(chi, x) + sympy.I * sympy.diff(chi, y)) / 2
    assert sympy.simplify(d_z / (sympy.pi * chi) - (n + sympy.I * m)) == 0
    assert sympy.simplify(d_zbar / (sympy.pi * chi) - (-n + sympy.I * m)) == 0


def test_derivative_symbols_on_characters():
    f = FourierScalar.char(2, -1, QQi(1))
    assert f.d_z() == FourierScalar.char(2, -1, QQi(-1, 2))
    assert f.d_zbar() == FourierScalar.char(2, -1, QQi(1, 2))
    assert FS_ONE.d_z() == FS_ZERO
    assert FS_ONE.d_zbar() == FS_ZERO


@given(scalars_st, scalars_st)
def test_leibniz_rule(f, g):
    assert (f * g).d_z() == f.d_z() * g + f * g.d_z()
    assert (f * g).d_zbar() == f.d_zbar() * g + f * g.d_zbar()


@given(scalars_st)
def test_derivatives_commute(f):
    assert f.d_z().d_zbar() == f.d_zbar().d_z()


@given(scalars_st)
def test_conjugate_intertwines_derivatives(f):
    # conj(d/dz f) = d/dzbar conj(f).
    assert f.d_z().conjugate() == f.conjugate().d_zbar()
    assert f.conjugate().conjugate() == f


# -- scalar arithmetic --------------------------------------------------------


@given(scalars_st, scalars_st, scalars_st)
def test_scalar_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_scalar_mixed_arithmetic():
    f = FourierScalar.char(1, 0, QQi(2))
    assert f + 0 == f
    assert 3 * f == f * 3 == FourierScalar.char(1, 0, QQi(6))
    assert f - f == FS_ZERO
    assert (2 - FourierScalar.const(QQi(2))).is_zero
    assert FourierScalar.const(Fraction(1, 2)) * 2 == FS_ONE


def test_scalar_zero_coefficients_are_dropped():
    f = FourierScalar({(1, 1): QQi(0), (0, 2): QQi(5)})
    assert f.items() == (((0, 2), QQi(5)),)
    assert not FourierScalar({(3, 3): QQi(0)})


@given(scalars_st, scalars_st, qqis)
def test_arithmetic_results_are_clean(f, g, q):
    # Results skip the public constructor; they must still hold int keys and
    # only nonzero coefficients, and equal the series that constructor builds.
    for h in (f + g, f - g, f * g, -f, f * q, q * f, f * 0, f.conjugate(),
              f.d_z(), f.d_zbar(), f + (-f)):
        assert all(c for c in h.modes.values())
        assert all(type(m) is int and type(n) is int for m, n in h.modes)
        assert h == FourierScalar(h.modes)


def test_scalar_immutable_and_hashable():
    f = FourierScalar.char(1, 2)
    with pytest.raises(AttributeError):
        f.modes = {}
    assert hash(f) == hash(FourierScalar.char(1, 2))
    assert f.constant_mode() == QQi(0)
    assert FourierScalar.const(QQi(7)).constant_mode() == QQi(7)


# -- matrix forms -------------------------------------------------------------


def test_bidegree_bookkeeping():
    f = MatrixForm.from_scalar_matrix([[QQi(1), QQi(0)], [QQi(0), QQi(-1)]])
    assert f.bidegree == (0, 0)
    assert dbar(f).bidegree == (0, 1)
    assert del_op(f).bidegree == (1, 0)
    assert dbar(del_op(f)).bidegree == (1, 1)
    with pytest.raises(ValueError):
        dbar(dbar(f))
    with pytest.raises(ValueError):
        del_op(del_op(f))
    with pytest.raises(ValueError):
        MatrixForm((2, 0), 1, [[FS_ZERO]])
    with pytest.raises(ValueError):
        MatrixForm((0, 0), 2, [[FS_ZERO]])


@given(matrix_forms())
@settings(max_examples=40)
def test_mixed_second_derivatives_cancel(f):
    total = dbar(del_op(f)) + del_op(dbar(f))
    assert total.is_zero


def test_stokes_exactness():
    rng = random.Random(17)
    for _ in range(10):
        alpha = random_matrix_form(rng, 2, bidegree=(1, 0), mode_bound=3)
        assert integrate_trace(dbar(alpha)) == QQi(0)
        beta = random_matrix_form(rng, 2, bidegree=(0, 1), mode_bound=3)
        assert integrate_trace(del_op(beta)) == QQi(0)


def test_integration_reads_constant_mode():
    f = MatrixForm((1, 1), 1, [[FourierScalar({(0, 0): QQi(4), (1, 2): QQi(9)})]])
    assert integrate_trace(f) == QQi(4)
    with pytest.raises(ValueError):
        integrate_trace(MatrixForm.zero(1, (1, 0)))


def test_wedge_frame_sign():
    f = MatrixForm((1, 0), 1, [[FourierScalar.const(QQi(2))]])
    g = MatrixForm((0, 1), 1, [[FourierScalar.const(QQi(3))]])
    # dz ^ dzbar is the canonical orientation; dzbar ^ dz flips it.
    assert wedge(f, g).entries[0][0] == FourierScalar.const(QQi(6))
    assert wedge(g, f).entries[0][0] == FourierScalar.const(QQi(-6))
    with pytest.raises(ValueError):
        wedge(f, f)


@given(matrix_forms(bidegree=(1, 0)), matrix_forms(bidegree=(0, 1)))
@settings(max_examples=30)
def test_trace_graded_cyclicity(a, b):
    assert trace(wedge(a, b)) == -trace(wedge(b, a))
    assert integrate_trace(wedge(a, b) + wedge(b, a)) == QQi(0)


@given(matrix_forms(bidegree=(1, 0)), matrix_forms(bidegree=(0, 1)))
@settings(max_examples=30)
def test_wedge_bracket_of_one_forms(a, b):
    assert wedge_bracket(a, b) == wedge(a, b) + wedge(b, a)


@given(matrix_forms(bidegree=(0, 0)), matrix_forms(bidegree=(0, 1)))
@settings(max_examples=30)
def test_wedge_bracket_against_function_is_commutator(f, b):
    assert wedge_bracket(f, b) == commutator(f, b)


def test_leibniz_for_matrix_dbar():
    rng = random.Random(5)
    f = random_matrix_form(rng, 2, bidegree=(0, 0))
    g = random_matrix_form(rng, 2, bidegree=(0, 0))
    # dbar(fg) = dbar(f) g + f dbar(g); wedge handles the frame bookkeeping.
    lhs = dbar(wedge(f, g))
    rhs = wedge(dbar(f), g) + wedge(f, dbar(g))
    assert lhs == rhs


@pytest.mark.parametrize("bidegree", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_conj_transpose_is_an_involution(bidegree):
    rng = random.Random(sum(bidegree))
    f = random_matrix_form(rng, 3, bidegree=bidegree)
    ct = conj_transpose(f)
    assert ct.bidegree == (bidegree[1], bidegree[0])
    assert conj_transpose(ct) == f


def test_conj_transpose_reverses_products():
    rng = random.Random(11)
    a = random_matrix_form(rng, 2, bidegree=(1, 0))
    b = random_matrix_form(rng, 2, bidegree=(0, 1))
    # The (1,1) orientation sign makes the adjoint reverse the product
    # with a single global minus.
    assert conj_transpose(wedge(a, b)) == -wedge(conj_transpose(b),
                                                 conj_transpose(a))


def test_matrix_form_shape_errors():
    f = MatrixForm.zero(2)
    g = MatrixForm.zero(3)
    with pytest.raises(ValueError):
        wedge(f, g)
    with pytest.raises(ValueError):
        f + MatrixForm.zero(2, (1, 0))


def test_matrix_form_rejects_entries_that_are_not_series():
    with pytest.raises(TypeError, match=r"entry \(0, 0\)"):
        MatrixForm((0, 0), 1, [[1]])
    with pytest.raises(TypeError, match=r"entry \(1, 0\) must be a FourierScalar, got QQi"):
        MatrixForm((0, 0), 2, [[FS_ONE, FS_ZERO], [QQi(1), FS_ONE]])


def test_json_round_trip():
    rng = random.Random(23)
    for bidegree in [(0, 0), (1, 1)]:
        f = random_matrix_form(rng, 2, bidegree=bidegree)
        assert MatrixForm.from_json(f.to_json()) == f


def test_trace_free_generator():
    rng = random.Random(2)
    f = random_matrix_form(rng, 3, trace_free=True)
    assert trace(f).is_zero
    g = random_fourier_scalar(random.Random(8))
    assert g == random_fourier_scalar(random.Random(8))


def test_exactness_of_coefficients():
    rng = random.Random(1)
    f = random_matrix_form(rng, 2, bidegree=(0, 0))
    out = dbar(wedge(f, f))
    for row in out.entries:
        for entry in row:
            for _, c in entry.items():
                assert isinstance(c, QQi)
