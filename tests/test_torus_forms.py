"""Exact Fourier calculus on the torus.

The derivative symbols are re-derived with sympy from the character
functions; everything else is checked through algebraic identities
(Leibniz, Stokes, wedge signs, adjoint involution) on random exact data.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from twistorsec import torus_forms
from twistorsec.scalars import QQi
from twistorsec.torus_forms import (FS_ZERO, FourierScalar, MatrixForm,
                                    conj_transpose, dbar, del_op,
                                    integrate_trace, pair_trace,
                                    random_fourier_scalar, random_matrix_form,
                                    trace, wedge, wedge_bracket, wedge_sum)

from qqi_parts import fraction_parts

rationals = st.builds(Fraction, st.integers(), st.integers(1, 8))
qqis = st.builds(QQi, rationals, rationals)
mode_keys = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
scalars_st = st.builds(FourierScalar,
                       st.dictionaries(mode_keys, qqis, max_size=4))
FS_ONE = FourierScalar.const(QQi(1))


def matrix_forms(size=2, bidegree=(0, 0)):
    return st.builds(
        lambda rows: MatrixForm(bidegree, rows),
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
    assert f * QQi(3) == FourierScalar.char(1, 0, QQi(6))
    assert f + -f == FS_ZERO
    assert FourierScalar.const(QQi(Fraction(1, 2))) * QQi(2) == FS_ONE


def test_scalar_zero_coefficients_are_dropped():
    f = FourierScalar({(1, 1): QQi(0), (0, 2): QQi(5)})
    assert f.items() == (((0, 2), QQi(5)),)
    assert not FourierScalar({(3, 3): QQi(0)})


@given(scalars_st, scalars_st, qqis)
def test_arithmetic_results_are_clean(f, g, q):
    # Results skip the public constructor; they must still hold int keys and
    # only nonzero coefficients, and equal the series that constructor builds.
    for h in (f + g, f * g, -f, f * q, f * QQi(0), f.conjugate(),
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
        MatrixForm((2, 0), [[FS_ZERO]])
    with pytest.raises(ValueError, match="square"):
        MatrixForm((0, 0), [[FS_ZERO, FS_ZERO]])


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
    f = MatrixForm((1, 1), [[FourierScalar({(0, 0): QQi(4), (1, 2): QQi(9)})]])
    assert integrate_trace(f) == QQi(4)
    with pytest.raises(ValueError):
        integrate_trace(MatrixForm.zero(1, (1, 0)))


def test_wedge_frame_sign():
    f = MatrixForm((1, 0), [[FourierScalar.const(QQi(2))]])
    g = MatrixForm((0, 1), [[FourierScalar.const(QQi(3))]])
    # dz ^ dzbar is the canonical orientation; dzbar ^ dz flips it.
    assert wedge(f, g).entries[0][0] == FourierScalar.const(QQi(6))
    assert wedge(g, f).entries[0][0] == FourierScalar.const(QQi(-6))
    with pytest.raises(ValueError):
        wedge(f, f)


def _reference_wedge(a, b):
    """wedge written entry by entry as reduce(add, map(mul, row, col)), one
    series product and one series sum at a time, with the frame sign
    (-1)^(q1*p2)."""
    cols = tuple(zip(*b.entries))
    rows = tuple(tuple(reduce(add, map(mul, row, col)) for col in cols)
                 for row in a.entries)
    (p1, q1), (p2, q2) = a.bidegree, b.bidegree
    prod = MatrixForm((p1 + p2, q1 + q2), rows)
    return -prod if q1 * p2 else prod


@pytest.mark.parametrize("bidegrees", [((0, 0), (0, 0)), ((1, 0), (0, 1)),
                                       ((0, 1), (1, 0)), ((0, 1), (0, 0))])
def test_fused_wedge_matches_the_entrywise_product_sums(bidegrees):
    # The four cases: functions, dz before dzbar, dzbar before dz (sign -1),
    # and a form against a function.
    rng = random.Random(41)
    for size in range(1, 5):
        for _ in range(4):
            a = random_matrix_form(rng, size, bidegrees[0], mode_bound=1, terms=3)
            b = random_matrix_form(rng, size, bidegrees[1], mode_bound=1, terms=3)
            assert wedge(a, b) == _reference_wedge(a, b)


def test_fused_wedge_drops_a_cancelled_mode_and_takes_it_back():
    # Entry (0, 0) sums 1*1, then 1*(-1), which cancels the constant mode,
    # then 5*1, which brings it back.  Entry (0, 1) cancels for good.
    one, minus_one, five = (FourierScalar.const(QQi(c)) for c in (1, -1, 5))
    a = MatrixForm((0, 0), [[one, one, five], [FS_ZERO] * 3, [FS_ZERO] * 3])
    b = MatrixForm((0, 0), [[one, one, FS_ZERO], [minus_one, minus_one, FS_ZERO],
                            [one, FS_ZERO, FS_ZERO]])
    out = wedge(a, b)
    assert out.entries[0][0] == five
    assert out.entries[0][1] == FS_ZERO
    assert out == _reference_wedge(a, b)


# -- wedge_sum against a plain Fraction convolution ---------------------------

_BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1))
#: Every pair of bidegrees whose wedge does not overflow.
_WEDGE_PAIRS = [(x, y) for x in _BIDEGREES for y in _BIDEGREES
                if x[0] + y[0] <= 1 and x[1] + y[1] <= 1]


def _fraction_form(rng, size, bidegree):
    """A random form with 0-3 modes per entry in [-1, 1]^2 and coefficients
    whose parts have denominators 1 to 7."""
    def part():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7))

    def entry():
        return FourierScalar({(rng.randint(-1, 1), rng.randint(-1, 1)):
                              QQi(part(), part()) for _ in range(rng.randint(0, 3))})
    return MatrixForm(bidegree, [[entry() for _ in range(size)] for _ in range(size)])


def _fractions(e):
    """A series as a dict from mode to its (re, im) Fractions."""
    return {k: fraction_parts(c) for k, c in e.modes.items()}


def _oracle_wedge_sum(start, terms):
    """start + sum s * wedge(a, b) entry by entry as Fraction pairs: a plain
    convolution of the modes, with the frame sign (-1)^(q1*p2) of each
    term, and the zero sums dropped at the end."""
    size = start.size
    out = [[_fractions(e) for e in row] for row in start.entries]
    for s, a, b in terms:
        sign = s * (-1) ** (a.bidegree[1] * b.bidegree[0])
        for i in range(size):
            for j in range(size):
                acc = out[i][j]
                for k in range(size):
                    for (m1, n1), (xr, xi) in _fractions(a.entries[i][k]).items():
                        for (m2, n2), (yr, yi) in _fractions(b.entries[k][j]).items():
                            mode = (m1 + m2, n1 + n2)
                            re, im = acc.get(mode, (0, 0))
                            acc[mode] = (re + sign * (xr * yr - xi * yi),
                                         im + sign * (xr * yi + xi * yr))
    return [[{k: v for k, v in e.items() if v != (0, 0)} for e in row] for row in out]


def _assert_matches_oracle(got, start, terms):
    assert got.bidegree == start.bidegree
    assert [[_fractions(e) for e in row] for row in got.entries] == \
        _oracle_wedge_sum(start, terms)
    assert all(c for row in got.entries for e in row for c in e.modes.values())


@pytest.mark.parametrize("target", _BIDEGREES)
def test_wedge_sum_matches_a_fraction_convolution(target):
    # Every bidegree pair that lands in the target, each twice with a random
    # sign, over a random start, at ranks 1 to 4.
    rng = random.Random(sum(target) * 10 + target[0])
    pairs = [(x, y) for x, y in _WEDGE_PAIRS
             if (x[0] + y[0], x[1] + y[1]) == target]
    for size in range(1, 5):
        for _ in range(3):
            start = _fraction_form(rng, size, target)
            terms = [(rng.choice((1, -1)), _fraction_form(rng, size, x),
                      _fraction_form(rng, size, y)) for x, y in pairs * 2]
            _assert_matches_oracle(wedge_sum(start, terms), start, terms)
            for s, a, b in terms:
                _assert_matches_oracle(wedge(a, b), MatrixForm.zero(size, target),
                                       [(1, a, b)])


def test_wedge_sum_drops_a_mode_of_start_that_a_term_cancels():
    # 6 at mode (0, 0) minus 2 * 3 cancels; a later +2 * 3 brings it back.
    start = MatrixForm((0, 0), [[FourierScalar({(0, 0): QQi(6), (1, 0): QQi(1)})]])
    a = MatrixForm.from_scalar_matrix([[QQi(2)]])
    b = MatrixForm.from_scalar_matrix([[QQi(3)]])
    got = wedge_sum(start, [(-1, a, b)])
    assert got.entries[0][0].modes == {(1, 0): QQi(1)}
    _assert_matches_oracle(got, start, [(-1, a, b)])
    assert wedge_sum(start, [(-1, a, b), (1, a, b)]) == start


@pytest.mark.parametrize("bidegrees", _WEDGE_PAIRS)
def test_wedge_bracket_graded_sign_against_the_oracle(bidegrees):
    # [a ^ b] = a^b - (-1)^(|a||b|) b^a, with the degrees summed here.
    x, y = bidegrees
    rng = random.Random(x[0] * 8 + x[1] * 4 + y[0] * 2 + y[1])
    target = (x[0] + y[0], x[1] + y[1])
    graded = -(-1) ** (sum(x) * sum(y))
    for size in (1, 2, 3):
        a, b = _fraction_form(rng, size, x), _fraction_form(rng, size, y)
        _assert_matches_oracle(wedge_bracket(a, b), MatrixForm.zero(size, target),
                               [(1, a, b), (graded, b, a)])


def test_wedge_sum_rejects_a_bad_sign_bidegree_or_size():
    f = MatrixForm.from_scalar_matrix([[QQi(1)]])
    g = MatrixForm.from_scalar_matrix([[QQi(1)]], (0, 1))
    with pytest.raises(ValueError, match="term 2 "):
        wedge_sum(f, [(2, f, f)])
    with pytest.raises(ValueError, match="does not land"):
        wedge_sum(f, [(1, f, g)])
    with pytest.raises(ValueError, match="does not land"):
        wedge_sum(MatrixForm.zero(2), [(1, f, f)])
    with pytest.raises(ValueError, match="overflow"):
        wedge_sum(MatrixForm.zero(1, (0, 1)), [(1, g, g)])


def test_pair_trace_equals_the_integrated_wedge():
    rng = random.Random(43)
    for size in (2, 3):
        for mode_bound in (2, 3):
            for _ in range(6):
                a = random_matrix_form(rng, size, (1, 0), mode_bound, terms=3)
                b = random_matrix_form(rng, size, (0, 1), mode_bound, terms=3)
                assert pair_trace(a, b) == integrate_trace(wedge(a, b))
    # tr(a b) = a_01 b_10 + a_10 b_01 has constant mode 1 - 1 = 0, from two
    # nonzero products; its other modes survive.
    a = MatrixForm((1, 0), [[FS_ZERO, FourierScalar.char(1, 0)],
                            [FourierScalar({(0, 1): QQi(1), (2, 0): QQi(3)}),
                             FS_ZERO]])
    b = MatrixForm((0, 1), [[FS_ZERO, FourierScalar.char(0, -1, QQi(-1))],
                            [FourierScalar.char(-1, 0), FS_ZERO]])
    assert trace(wedge(a, b))
    assert pair_trace(a, b) == integrate_trace(wedge(a, b)) == QQi(0)


def test_pair_trace_takes_only_a_one_zero_form_then_a_zero_one_form():
    rng = random.Random(44)
    a = random_matrix_form(rng, 2, (1, 0))
    b = random_matrix_form(rng, 2, (0, 1))
    with pytest.raises(ValueError, match="pairs"):
        pair_trace(b, a)
    with pytest.raises(ValueError, match="pairs"):
        pair_trace(a, a)
    with pytest.raises(ValueError, match="size mismatch"):
        pair_trace(a, random_matrix_form(rng, 3, (0, 1)))


def test_pair_trace_forms_no_series_product(monkeypatch):
    rng = random.Random(45)
    a = random_matrix_form(rng, 3, (1, 0), mode_bound=1, terms=3)
    b = random_matrix_form(rng, 3, (0, 1), mode_bound=1, terms=3)
    want = integrate_trace(wedge(a, b))
    assert want != QQi(0)

    def refuse(*args):
        raise AssertionError("pair_trace formed a series product")
    monkeypatch.setattr(FourierScalar, "__mul__", refuse)
    monkeypatch.setattr(torus_forms, "_sum_products", refuse)
    assert pair_trace(a, b) == want


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
    assert wedge_bracket(f, b) == wedge(f, b) + -wedge(b, f)


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
        MatrixForm((0, 0), [[1]])
    with pytest.raises(TypeError, match=r"entry \(1, 0\) must be a FourierScalar, got QQi"):
        MatrixForm((0, 0), [[FS_ONE, FS_ZERO], [QQi(1), FS_ONE]])


def test_json_round_trip():
    rng = random.Random(23)
    for bidegree in [(0, 0), (1, 1)]:
        f = random_matrix_form(rng, 2, bidegree=bidegree)
        assert MatrixForm.from_json(f.to_json()) == f


def test_json_rejects_a_size_that_disagrees_with_the_rows():
    # The size is read off the rows; the document's declared size must match.
    doc = random_matrix_form(random.Random(24), 2, bidegree=(1, 0)).to_json()
    assert doc["size"] == 2
    for wrong in (1, 3, "2"):
        with pytest.raises(ValueError, match="declared size"):
            MatrixForm.from_json(dict(doc, size=wrong))


def test_json_size_must_be_an_int():
    # True == 1 == 1.0 in Python, but a bool or a float is not a size.
    doc = MatrixForm.zero(1).to_json()
    for wrong in (True, 1.0):
        with pytest.raises(ValueError, match="declared size"):
            MatrixForm.from_json(dict(doc, size=wrong))


def _one_cell_doc(modes):
    """A 2 x 2 (0,0)-form document whose entry (1, 0) lists the modes."""
    doc = MatrixForm.zero(2).to_json()
    doc["entries"][1][0] = {"modes": modes}
    return doc


@pytest.mark.parametrize("mode", [[1.7, 0], [True, "2"]], ids=["float", "bool-str"])
def test_json_rejects_a_mode_that_is_not_two_ints(mode):
    # int() would load [1.7, 0] as (1, 0) and [true, "2"] as (1, 2).
    with pytest.raises(ValueError, match=r"^entry \(1, 0\) mode .* must be a pair of ints$"):
        MatrixForm.from_json(_one_cell_doc([mode + [[1, 1, 0, 1]]]))


def test_json_rejects_a_mode_listed_twice():
    doc = _one_cell_doc([[1, 0, [1, 1, 0, 1]], [1, 0, [2, 1, 0, 1]]])
    with pytest.raises(ValueError, match=r"^entry \(1, 0\) mode \[1, 0\] is listed twice$"):
        MatrixForm.from_json(doc)


@pytest.mark.parametrize("scalar", [[1, 0, 0, 1], [0, 1, 1, 0], [1.5, 1, 0, 1],
                                    [1, 1, 0, 1.0]],
                         ids=["zero-re-den", "zero-im-den", "float-re", "float-im-den"])
def test_json_rejects_a_coefficient_with_a_zero_denominator_or_a_float_part(scalar):
    with pytest.raises(ValueError, match=r"^entry \(1, 0\) mode \[2, -1\] coefficient "
                                         r".* is not four ints"):
        MatrixForm.from_json(_one_cell_doc([[2, -1, scalar]]))


@pytest.mark.parametrize("doc, message", [
    (_one_cell_doc([[2, -1, 5]]), r"^entry \(1, 0\) mode \[2, -1\] coefficient 5 is not"),
    (_one_cell_doc([[0, 0]]), r"^entry \(1, 0\) mode \[0, 0\] is not \[m, n, scalar\]$"),
    (_one_cell_doc(7), r"^entry \(1, 0\) modes must be a list, got 7$"),
    (dict(_one_cell_doc([]), bidegree=5), r"^field 'bidegree' must be a list, got 5$"),
    ({"bidegree": [0, 0], "size": 2}, r"^field 'entries' must be a list, got None$"),
    (dict(_one_cell_doc([]), entries=[[{}]]),
     r"^entry \(0, 0\) modes must be a list, got None$"),
    (dict(_one_cell_doc([]), entries=[3]), r"^row 0 must be a list, got 3$"),
    ([], r"^field 'entries' must be a list, got None$"),
], ids=["int-coefficient", "short-mode", "int-modes", "int-bidegree", "no-entries",
        "no-modes", "int-row", "list-document"])
def test_json_of_the_wrong_structure_names_the_field(doc, message):
    with pytest.raises(ValueError, match=message):
        MatrixForm.from_json(doc)


def test_trace_free_generator():
    rng = random.Random(2)
    f = random_matrix_form(rng, 3, trace_free=True)
    assert not trace(f)
    g = random_fourier_scalar(random.Random(8))
    assert g == random_fourier_scalar(random.Random(8))


def _oracle_series(oracle, mode_bound, terms):
    """random_fourier_scalar replayed with randint and Fraction, as a dict from
    mode to (re, im): per term the mode, then a/b + (c/e)i, drawn in that
    order, with a mode whose terms cancel dropped."""
    modes = {}
    for _ in range(terms):
        key = (oracle.randint(-mode_bound, mode_bound),
               oracle.randint(-mode_bound, mode_bound))
        a, b = oracle.randint(-6, 6), oracle.randint(1, 4)
        c, e = oracle.randint(-6, 6), oracle.randint(1, 4)
        re, im = modes.get(key, (0, 0))
        modes[key] = (re + Fraction(a, b), im + Fraction(c, e))
    return {k: v for k, v in modes.items() if v != (0, 0)}


@pytest.mark.parametrize("terms", range(1, 5))
@pytest.mark.parametrize("mode_bound", range(4))
def test_series_draws_replay_randint(mode_bound, terms):
    # The same modes and coefficients, and the same generator state, as the
    # randint oracle: series one by one, then trace-free forms, whose last
    # diagonal entry is drawn and then replaced by minus the others.
    seed = 10 * mode_bound + terms
    rng, oracle = random.Random(seed), random.Random(seed)
    for _ in range(300):
        got = random_fourier_scalar(rng, mode_bound, terms)
        assert _fractions(got) == _oracle_series(oracle, mode_bound, terms)
    assert rng.getstate() == oracle.getstate()
    for size in (1, 2, 3):
        form = random_matrix_form(rng, size, (0, 1), mode_bound, terms, trace_free=True)
        want = [[_oracle_series(oracle, mode_bound, terms) for _ in range(size)]
                for _ in range(size)]
        last = {}
        for i in range(size - 1):
            for k, (re, im) in want[i][i].items():
                r0, i0 = last.get(k, (0, 0))
                last[k] = (r0 - re, i0 - im)
        want[-1][-1] = {k: v for k, v in last.items() if v != (0, 0)}
        assert form.bidegree == (0, 1)
        assert [[_fractions(e) for e in row] for row in form.entries] == want
        assert rng.getstate() == oracle.getstate()


def test_series_draws_reject_an_empty_range():
    rng = random.Random(3)
    with pytest.raises(ValueError, match="empty range"):
        random_fourier_scalar(rng, -1)
    with pytest.raises(ValueError, match="bad bidegree"):
        random_matrix_form(rng, 2, (2, 0))


def _assert_well_built(f):
    """f is what the checked constructor builds from its own fields: a tuple
    bidegree among the four and square tuple rows of series."""
    assert f == MatrixForm(f.bidegree, f.entries)
    assert type(f.bidegree) is tuple and f.bidegree in _BIDEGREES
    assert type(f.entries) is tuple
    for row in f.entries:
        assert type(row) is tuple and len(row) == len(f.entries)
        assert all(type(e) is FourierScalar for e in row)


@given(st.data())
@settings(max_examples=40)
def test_operations_build_forms_the_checked_constructor_accepts(data):
    # The operations build their results without the constructor's checks.
    size = data.draw(st.integers(1, 3))
    f00, f10, f01, f11 = (data.draw(matrix_forms(size, b)) for b in _BIDEGREES)
    c, s = data.draw(qqis), data.draw(scalars_st)
    results = [dbar(f00), dbar(f10), del_op(f00), del_op(f01),
               wedge_sum(f11, [(1, f10, f01), (-1, f01, f10)]),
               wedge_sum(f10, [(1, f00, f10), (-1, f10, f00)]),
               wedge_bracket(f10, f01), wedge_bracket(f00, f01)]
    for f in (f00, f10, f01, f11):
        results += [conj_transpose(f), f + f, -f, f * c, f * s]
    for f in results:
        _assert_well_built(f)


def test_exactness_of_coefficients():
    rng = random.Random(1)
    f = random_matrix_form(rng, 2, bidegree=(0, 0))
    out = dbar(wedge(f, f))
    for row in out.entries:
        for entry in row:
            for _, c in entry.items():
                assert isinstance(c, QQi)
