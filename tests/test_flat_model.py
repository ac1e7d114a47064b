"""Flat-model twistor sections: evaluation, involution, energy, moment map.

The moment-map constant and the closed energy form are re-derived here
symbolically (sympy) from their defining equations, independently of the
library's frozen constants.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from twistorsec.constants import ENERGY_BLOCK_COEFF, MU_COEFF, REALITY_SIGN
from twistorsec.flat_model import (FlatPoint, FlatSection, d_energy, energy,
                                   energy_infinity, evaluate, fixed_part,
                                   fundamental_field, group_action,
                                   holomorphic_metric, moment_map, omega0_killing,
                                   omega0_splitting, random_section,
                                   real_involution, relative_symplectic,
                                   residue_form_phi, twist,
                                   twistor_line, vanishing_at_infinity_part,
                                   vanishing_at_zero_part, zero_tangent)
from twistorsec.projline import INFINITY
from twistorsec.scalars import I, QQi, scalar_from_json

rationals = st.builds(Fraction, st.integers(), st.integers(1, 12))
qqis = st.builds(QQi, rationals, rationals)


def sections(d):
    block = st.tuples(qqis, qqis, qqis, qqis)
    return st.builds(FlatSection, st.tuples(*[block] * d))


def symbolic_section(prefix, d):
    blocks = []
    for k in range(d):
        blocks.append(sympy.symbols(
            f"{prefix}a1_{k} {prefix}a2_{k} {prefix}b1_{k} {prefix}b2_{k}"))
    return FlatSection(tuple(blocks))


# -- oracle re-derivations ----------------------------------------------------


def test_moment_map_constant_from_hamiltonian_equation():
    # The fiber rotation is (z, w) -> (z, e^{i theta} w); on w = x + iy its
    # generating field is (-y, x).  Solve d(mu) = i * omega_I(X, -) with
    # omega_I = dx ^ dy on the w-plane and mu(z, 0) = 0.
    x, y = sympy.symbols("x y", real=True)
    contraction = {x: -x, y: -y}  # components of iota_X (dx ^ dy)
    mu = sympy.sympify(MU_COEFF) * (x ** 2 + y ** 2)
    for var in (x, y):
        assert sympy.simplify(sympy.diff(mu, var)
                              - sympy.I * contraction[var]) == 0
    assert mu.subs({x: 0, y: 0}) == 0


def test_moment_map_values():
    assert moment_map(FlatPoint(((QQi(5), QQi(0)),))) == QQi(0)
    assert moment_map(FlatPoint(((QQi(0), QQi(2)),))) == QQi(0, -2)
    assert moment_map(FlatPoint(((QQi(0), QQi(1, 1)), (QQi(3), QQi(2))))) \
        == MU_COEFF * QQi(6)


def test_energy_closed_form_from_definition():
    # The library computes the energy from the definitional formula with
    # conjugations; symbolically the conjugate terms must cancel, leaving
    # (i/2) a2 b1 per block.
    a1, a2, b1, b2 = sympy.symbols("a1 a2 b1 b2")
    s = FlatSection(((a1, a2, b1, b2),))
    closed = sympy.I * sympy.Rational(1, 2) * a2 * b1
    assert sympy.simplify(sympy.expand(energy(s)) - closed) == 0


def test_energy_infinity_closed_form_from_definition():
    a1, a2, b1, b2 = sympy.symbols("a1 a2 b1 b2")
    s = FlatSection(((a1, a2, b1, b2),))
    closed = -sympy.I * sympy.Rational(1, 2) * a2 * b1
    assert sympy.simplify(sympy.expand(energy_infinity(s)) - closed) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_map_identity_polynomial(d):
    # dE = i * Omega_0(X, -) as a polynomial-coefficient identity in the
    # section coordinates.
    s = symbolic_section("s", d)
    v = symbolic_section("v", d)
    lhs = sympy.expand(d_energy(s, v))
    rhs = sympy.expand(
        sympy.I * sympy.sympify(omega0_killing(s, fundamental_field(s), v)))
    assert sympy.expand(lhs - rhs) == 0


@given(st.integers(min_value=1, max_value=3), st.data())
def test_moment_map_identity_random(d, data):
    s = data.draw(sections(d))
    v = data.draw(sections(d))
    assert d_energy(s, v) == I * omega0_killing(s, fundamental_field(s), v)


# -- operation contracts ------------------------------------------------------


def test_twistor_line_examples():
    zero = twistor_line(FlatPoint(((QQi(0), QQi(0)),)))
    assert zero.blocks == ((QQi(0), QQi(0), QQi(0), QQi(0)),)
    one = twistor_line(FlatPoint(((QQi(1), QQi(0)),)))
    assert one.blocks == ((QQi(1), QQi(0), QQi(0), QQi(1)),)


@given(st.lists(st.tuples(qqis, qqis), min_size=1, max_size=3))
def test_twistor_lines_are_real_and_pass_through_their_point(coords):
    m = FlatPoint(tuple(coords))
    line = twistor_line(m)
    assert real_involution(line) == line
    assert evaluate(line, QQi(0)) == m


def test_evaluate_examples():
    s = FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))
    assert evaluate(s, QQi(0)) == FlatPoint(((QQi(1), QQi(3)),))
    assert evaluate(s, INFINITY) == FlatPoint(((QQi(2), QQi(4)),))
    assert evaluate(s, QQi(1)) == FlatPoint(((QQi(3), QQi(7)),))


def test_real_involution_examples():
    s = FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))
    assert real_involution(real_involution(s)) == s
    t = FlatSection(((QQi(0), QQi(1), QQi(0), QQi(0)),))
    assert real_involution(t).blocks == ((QQi(0), QQi(0), QQi(-1), QQi(0)),)


@given(st.integers(min_value=1, max_value=3), st.data())
def test_real_fixed_sections_are_twistor_lines(d, data):
    s = data.draw(sections(d))
    if real_involution(s) == s:
        assert s == twistor_line(evaluate(s, QQi(0)))
    # Conversely the symmetrization is always fixed.
    # (tau is conjugate-linear, so average s with tau(s).)
    sym = FlatSection(tuple(
        tuple((x + y) / QQi(2) for x, y in zip(b1, b2))
        for b1, b2 in zip(s.blocks, real_involution(s).blocks)))
    assert real_involution(sym) == sym


def test_group_action_examples():
    s = FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))
    assert group_action(QQi(1), s) == s
    assert group_action(QQi(2), s).blocks == ((QQi(1), QQi(1), QQi(6), QQi(4)),)
    with pytest.raises(ValueError):
        group_action(QQi(0), s)


@given(st.integers(min_value=1, max_value=2), st.data())
def test_group_action_is_an_action(d, data):
    s = data.draw(sections(d))
    z1 = data.draw(qqis.filter(bool))
    z2 = data.draw(qqis.filter(bool))
    assert group_action(z1, group_action(z2, s)) == group_action(z1 * z2, s)


def test_fundamental_field_examples():
    z, w = QQi(2, 1), QQi(1, -3)
    line = twistor_line(FlatPoint(((z, w),)))
    x = fundamental_field(line)
    assert x.blocks == ((QQi(0), I * w.conjugate(), I * w, QQi(0)),)
    # Value at 0 is the fiber rotation field Y at s(0) = (z, w): (0, i w).
    assert evaluate(x, QQi(0)) == FlatPoint(((QQi(0), I * w),))
    fixed = FlatSection(((QQi(5), QQi(0), QQi(0), QQi(7)),))
    assert fundamental_field(fixed) == zero_tangent(1)


def test_relative_symplectic_darboux_normalization():
    dv = FlatPoint(((QQi(1), QQi(0)),))
    dxi = FlatPoint(((QQi(0), QQi(1)),))
    assert relative_symplectic(dv, dxi) == QQi(1)
    assert relative_symplectic(dxi, dv) == QQi(-1)
    assert relative_symplectic(dv, dv) == QQi(0)


def test_omega0_basis_values():
    s = FlatSection(((QQi(1), QQi(1), QQi(1), QQi(1)),))
    da1 = FlatSection(((QQi(1), QQi(0), QQi(0), QQi(0)),))
    db1 = FlatSection(((QQi(0), QQi(0), QQi(1), QQi(0)),))
    db2 = FlatSection(((QQi(0), QQi(0), QQi(0), QQi(1)),))
    assert omega0_killing(s, da1, db2) == QQi(0, Fraction(1, 2))
    assert omega0_killing(s, da1, da1) == QQi(0)
    assert omega0_killing(s, da1, db1) == QQi(0)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60)
def test_omega0_dual_definitions_agree(d, data):
    s = data.draw(sections(d))
    v = data.draw(sections(d))
    w = data.draw(sections(d))
    lhs = omega0_killing(s, v, w)
    assert lhs == omega0_splitting(s, v, w)
    assert lhs == -omega0_killing(s, w, v)


@given(st.integers(min_value=1, max_value=2), st.data())
def test_omega0_lagrangian_on_zero_vanishing_tangents(d, data):
    v = data.draw(sections(d))
    w = data.draw(sections(d))
    s = data.draw(sections(d))
    v0 = vanishing_at_zero_part(v)
    w0 = vanishing_at_zero_part(w)
    assert omega0_splitting(s, v0, w0) == QQi(0)
    vinf = vanishing_at_infinity_part(v)
    winf = vanishing_at_infinity_part(w)
    assert omega0_splitting(s, vinf, winf) == QQi(0)


def test_splitting_parts_reassemble():
    v = FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))
    v0 = vanishing_at_zero_part(v)
    vinf = vanishing_at_infinity_part(v)
    assert evaluate(v0, QQi(0)) == FlatPoint(((QQi(0), QQi(0)),))
    assert evaluate(vinf, INFINITY) == FlatPoint(((QQi(0), QQi(0)),))
    rebuilt = FlatSection(tuple(
        tuple(x + y for x, y in zip(b0, binf))
        for b0, binf in zip(v0.blocks, vinf.blocks)))
    assert rebuilt == v


@given(st.integers(min_value=1, max_value=2), st.data())
def test_holomorphic_metric_symmetry_and_basis_value(d, data):
    s = data.draw(sections(d))
    v = data.draw(sections(d))
    w = data.draw(sections(d))
    assert holomorphic_metric(s, v, w) == holomorphic_metric(s, w, v)
    da1 = FlatSection(((QQi(1), QQi(0), QQi(0), QQi(0)),)
                      + ((QQi(0),) * 4,) * (d - 1))
    db2 = FlatSection(((QQi(0), QQi(0), QQi(0), QQi(1)),)
                      + ((QQi(0),) * 4,) * (d - 1))
    assert holomorphic_metric(s, da1, db2) == QQi(1)


@given(st.integers(min_value=1, max_value=2), qqis, st.data())
def test_metric_isotropic_on_common_vanishing(d, x, data):
    # Tangents vanishing at the same point span an isotropic subspace.
    def vanishing(draw):
        blocks = []
        for _ in range(d):
            al = draw(qqis)
            be = draw(qqis)
            blocks.append((-al * x, al, -be * x, be))
        return FlatSection(tuple(blocks))

    s = data.draw(sections(d))
    v = vanishing(data.draw)
    w = vanishing(data.draw)
    assert holomorphic_metric(s, v, w) == QQi(0)


def test_energy_examples():
    z, w = QQi(1, 2), QQi(3, -1)
    line = twistor_line(FlatPoint(((z, w),)))
    assert energy(line) == moment_map(FlatPoint(((z, w),)))
    fixed = FlatSection(((QQi(5), QQi(0), QQi(0), QQi(7)),))
    assert energy(fixed) == QQi(0)
    s = FlatSection(((QQi(0), QQi(2), QQi(3), QQi(0)),))
    assert energy(s) == QQi(0, 3)
    assert energy_infinity(s) == QQi(0, -3)
    assert energy_infinity(fixed) == QQi(0)


@given(st.integers(min_value=1, max_value=3), st.data())
def test_energy_plus_energy_infinity_vanishes(d, data):
    s = data.draw(sections(d))
    assert energy(s) + energy_infinity(s) == QQi(0)


def test_d_energy_examples():
    s = FlatSection(((QQi(0), QQi(2), QQi(3), QQi(0)),))
    da2 = FlatSection(((QQi(0), QQi(1), QQi(0), QQi(0)),))
    assert d_energy(s, da2) == QQi(0, Fraction(3, 2))
    fixed = FlatSection(((QQi(1), QQi(0), QQi(0), QQi(4)),))
    assert d_energy(fixed, fundamental_field(fixed)) == QQi(0)


def test_critical_fixed_equivalence():
    # The three solution sets are the same linear condition a2 = b1 = 0.
    rng = random.Random(3)
    for _ in range(50):
        s = random_section(rng, d=2)
        fixed = all(not a2 and not b1 for _, a2, b1, _ in s.blocks)
        x_vanishes = fundamental_field(s) == zero_tangent(s.d)
        # All partials of the energy vanish iff every a2 and b1 is 0,
        # since dE = (i/2) sum(da2*b1 + a2*db1).
        grad_vanishes = all(
            d_energy(s, basis) == QQi(0) for basis in _basis_tangents(s.d))
        # Fiber fixed points: over 0 the rotation moves w (coordinate b1);
        # in the infinity chart it moves the twisted v side (coordinate a2).
        boundary_fixed = all(
            not w for _, w in evaluate(s, QQi(0)).coords) and all(
            not v for v, _ in evaluate(s, INFINITY).coords)
        assert fixed == x_vanishes == grad_vanishes
        assert boundary_fixed == fixed
    # A known fixed point passes all three.
    s = FlatSection(((QQi(1), QQi(0), QQi(0), QQi(4)),
                     (QQi(0, -2), QQi(0), QQi(0), QQi(9)),))
    assert fundamental_field(s) == zero_tangent(2)
    assert all(d_energy(s, b) == QQi(0) for b in _basis_tangents(2))


def _basis_tangents(d):
    for k in range(d):
        for j in range(4):
            blocks = [[QQi(0)] * 4 for _ in range(d)]
            blocks[k][j] = QQi(1)
            yield FlatSection(tuple(tuple(b) for b in blocks))


def test_twist_examples():
    fixed = FlatSection(((QQi(1), QQi(0), QQi(0), QQi(4)),))
    assert twist(fixed) == fixed
    assert twist(FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))) is None
    assert twist(FlatSection(((QQi(1), QQi(0), QQi(0), QQi(4)),
                              (QQi(0), QQi(1), QQi(0), QQi(0))))) is None
    assert fixed_part(FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))) == fixed


@given(st.integers(min_value=1, max_value=3), st.data())
def test_fixed_part_and_the_tau_direction(d, data):
    s = data.draw(sections(d))
    p = fixed_part(s)
    assert fixed_part(p) == p
    assert fundamental_field(p) == zero_tangent(d)
    assert (twist(s) is s) == (p == s) and (twist(s) is None) == (p != s)
    # tau(s) has va2 = -conj(b1) and vb1 = -conj(a2), so the energy
    # differential along it is -c * sum(|a2|^2 + |b1|^2).
    norms = QQi(0)
    for _, a2, b1, _ in s.blocks:
        norms = norms + a2 * a2.conjugate() + b1 * b1.conjugate()
    assert d_energy(s, real_involution(s)) == -ENERGY_BLOCK_COEFF * norms


def test_residue_form_examples():
    s = FlatSection(((QQi(1), QQi(2), QQi(3), QQi(4)),))
    # Pure base direction at lambda = 0 reads off the energy.
    assert residue_form_phi(s, QQi(0), QQi(1), zero_tangent(1)) == energy(s)
    # Pure vertical at 0: omega(Y, V(0)) with Y = (0, i b1).
    v = FlatSection(((QQi(5), QQi(0), QQi(7), QQi(0)),))
    expected = relative_symplectic(
        FlatPoint(((QQi(0), I * QQi(3)),)), evaluate(v, QQi(0)))
    assert residue_form_phi(s, QQi(0), QQi(0), v) == expected
    # Directions killed by evaluation (zero base part, tangent vanishing at
    # the point) are in the kernel.
    t = QQi(7)
    al, be = QQi(2, 1), QQi(0, 3)
    vt = FlatSection(((-al * t, al, -be * t, be),))
    assert residue_form_phi(s, t, QQi(0), vt) == QQi(0)
    with pytest.raises(ValueError):
        residue_form_phi(s, INFINITY, QQi(1), v)


# -- invariants ---------------------------------------------------------------


@given(st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=60)
def test_circle_invariance_of_omega0_and_energy(d, data):
    s = data.draw(sections(d))
    v = data.draw(sections(d))
    w = data.draw(sections(d))
    zeta = data.draw(qqis.filter(bool))
    zs = group_action(zeta, s)
    # The action is linear in the section entries, so it is its own
    # differential and pushes tangents forward directly.
    zv = group_action(zeta, v)
    zw = group_action(zeta, w)
    assert omega0_killing(zs, zv, zw) == omega0_killing(s, v, w)
    assert energy(zs) == energy(s)


@given(st.integers(min_value=1, max_value=2), st.data())
def test_tau_equivariance(d, data):
    s = data.draw(sections(d))
    zeta = data.draw(qqis.filter(bool))
    lhs = real_involution(group_action(zeta, s))
    rhs = group_action(QQi(1) / zeta.conjugate(), real_involution(s))
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=60)
def test_omega0_reality(d, data):
    s = data.draw(sections(d))
    v = data.draw(sections(d))
    w = data.draw(sections(d))
    lhs = omega0_killing(real_involution(s), real_involution(v),
                         real_involution(w))
    assert lhs == omega0_killing(s, v, w).conjugate()


@given(st.integers(min_value=1, max_value=3), st.data())
def test_energy_reality(d, data):
    s = data.draw(sections(d))
    assert energy(real_involution(s)).conjugate() == REALITY_SIGN * energy(s)


def test_section_validation_and_json():
    with pytest.raises(ValueError):
        FlatSection(())
    with pytest.raises(ValueError):
        FlatSection(((QQi(1), QQi(2)),))
    with pytest.raises(ValueError):
        FlatPoint(((QQi(1),),))
    s = FlatSection(((QQi(1), QQi(Fraction(1, 2)), QQi(0, 3), QQi(4)),))
    doc = s.to_json()
    assert doc["d"] == 1
    assert FlatSection(tuple(tuple(scalar_from_json(c) for c in blk)
                             for blk in doc["blocks"])) == s


def test_random_section_determinism():
    a = random_section(random.Random(9), d=3)
    b = random_section(random.Random(9), d=3)
    assert a == b and a.d == 3
