"""Truncated connection families: curvature expansion, gauge action, two-form,
second variation, fixed lifts, regluing, and the parameter-level involution.

Two independent oracles anchor the curvature code: the residual coefficients
are compared against an explicit operator-composition expansion applied to
test sections, and the linearization against an exact quadratic extraction
from shifted lifts.
"""

import random
from fractions import Fraction

import pytest

from twistorsec.constants import ENERGY_LIFT_COEFF, XI_SCALAR_PHIPSI
from twistorsec.lambda_lifts import (DHPoint, LambdaLift,
                                     TangentSeries, bb_slice_residual,
                                     c_star_fixed_lift, c_star_on_point,
                                     circle_field,
                                     d_energy_of_lift, deligne_glue,
                                     energy_of_lift, gauge_tangent,
                                     gauge_transform_lift, has_pure_grade,
                                     integrability_residuals,
                                     lift_to_laurent, linearized_residuals,
                                     omega_hat,
                                     random_pure_grade_form,
                                     real_involution_chart, real_involution_dh,
                                     second_variation, xi_matrix_form)
from twistorsec.scalars import QQi, random_qqi
from twistorsec.torus_forms import (FS_ZERO, FourierScalar, MatrixForm,
                                    conj_transpose, dbar, del_op, integrate_trace,
                                    random_fourier_scalar, random_matrix_form,
                                    wedge)
from twistorsec.vhs import VhsBlockData

from curvature_oracle import composition_residuals


def _commutator(a, b):
    """The matrix commutator a b - b a, written out from wedge, independently
    of the library's graded bracket."""
    return wedge(a, b) + -wedge(b, a)


E21_DZ = MatrixForm.from_scalar_matrix([[0, 0], [QQi(1), 0]], (1, 0))
E12_DZBAR = MatrixForm.from_scalar_matrix([[0, QQi(1)], [0, 0]], (0, 1))
E12_DZ = MatrixForm.from_scalar_matrix([[0, QQi(1)], [0, 0]], (1, 0))
ZERO_B, ZERO_A = MatrixForm.zero(2, (0, 1)), MatrixForm.zero(2, (1, 0))


def _low_pair(cls, a0=ZERO_A, b1=ZERO_B, order=1):
    """The rank-2 pair of the order with a = (a0, 0, ..., 0) and
    b = (0, b1, 0, ..., 0), as a LambdaLift or a TangentSeries."""
    return cls((ZERO_B, b1) + (ZERO_B,) * (order - 1), (a0,) + (ZERO_A,) * order)


def _random_lift(rng, rank=2, order=3):
    """a_0, then b_1..b_N, then a_1..a_N."""
    a0 = random_matrix_form(rng, rank, (1, 0), trace_free=True)
    b = tuple(random_matrix_form(rng, rank, (0, 1), trace_free=True)
              for _ in range(order))
    a = tuple(random_matrix_form(rng, rank, (1, 0), trace_free=True)
              for _ in range(order))
    return LambdaLift((MatrixForm.zero(rank, (0, 1)),) + b, (a0,) + a)


def _random_tangent(rng, rank, order, zero_b0=False):
    b = [random_matrix_form(rng, rank, (0, 1), trace_free=True)
         for _ in range(order + 1)]
    if zero_b0:
        b[0] = MatrixForm.zero(rank, (0, 1))
    a = [random_matrix_form(rng, rank, (1, 0), trace_free=True)
         for _ in range(order + 1)]
    return TangentSeries(b, a)


def _random_gauge(rng, rank, order):
    """xi_0, ..., xi_order."""
    return [random_matrix_form(rng, rank, (0, 0), trace_free=True)
            for _ in range(order + 1)]


IDENT = MatrixForm.from_scalar_matrix([[QQi(1), 0], [0, QQi(1)]], (0, 0))
E11 = MatrixForm.from_scalar_matrix([[QQi(1), 0], [0, 0]], (0, 0))


def _strict_upper_of_rank(rng, rank):
    # Families 1 + sum t^k g_k with strictly triangular g_k have determinant
    # one, which the transformed lift's trace-free validation requires.
    return MatrixForm((0, 0), [[random_fourier_scalar(rng) if c > r else FS_ZERO
                                for c in range(rank)] for r in range(rank)])


def _strict_lower(rng):
    return MatrixForm((0, 0),
                      [[FourierScalar(), FourierScalar()],
                       [random_fourier_scalar(rng), FourierScalar()]])


# -- oracle 1: curvature coefficients via operator composition ----------------


def test_residuals_match_composition_oracle():
    rng = random.Random(100)
    for _ in range(20):
        lift = _random_lift(rng)
        u = random_matrix_form(rng, 2, (0, 0))
        model = integrability_residuals(lift)
        oracle = composition_residuals(lift, u, lift.order)
        for r, o in zip(model, oracle):
            assert wedge(r, u) == o


def test_residuals_on_identity_section():
    # With u = 1 the composition returns the curvature coefficients directly.
    rng = random.Random(101)
    lift = _random_lift(rng)
    ident = MatrixForm.from_scalar_matrix([[QQi(1), 0], [0, QQi(1)]], (0, 0))
    oracle = composition_residuals(lift, ident, lift.order)
    for r, o in zip(integrability_residuals(lift), oracle):
        assert r == o


def test_residual_low_orders_closed_form():
    rng = random.Random(102)
    lift = _random_lift(rng)
    res = integrability_residuals(lift)
    a0, a1, b1 = lift.a[0], lift.a[1], lift.b[1]
    assert res[0] == dbar(a0)
    assert res[1] == dbar(a1) + wedge(a0, b1) + wedge(b1, a0)


# -- oracle 2: linearization via exact quadratic extraction -------------------


def _shift(lift, t, c):
    """The lift displaced by c * t; needs t.b[0] = 0 to stay in the space."""
    assert t.b[0].is_zero
    return LambdaLift([x + y * c for x, y in zip(lift.b, t.b)],
                      [x + y * c for x, y in zip(lift.a, t.a)])


def test_linearization_matches_quadratic_extraction():
    # The residuals are quadratic in the coefficients, so the directional
    # derivative is (4 R(s+t) - R(s+2t) - 3 R(s)) / 2, exactly.
    rng = random.Random(103)
    for _ in range(15):
        lift = _random_lift(rng)
        t = _random_tangent(rng, 2, lift.order, zero_b0=True)
        base = integrability_residuals(lift)
        once = integrability_residuals(_shift(lift, t, QQi(1)))
        twice = integrability_residuals(_shift(lift, t, QQi(2)))
        model = linearized_residuals(lift, t)
        for k in range(lift.order + 1):
            oracle = ((once[k] * QQi(4) + -twice[k] + base[k] * QQi(-3))
                      * QQi(Fraction(1, 2)))
            assert model[k] == oracle


def test_linearization_along_gauge_directions_is_conjugation():
    # Infinitesimal gauge motion conjugates the curvature:
    # dR(gauge direction of xi)_k = sum over i+j=k of [R_i, xi_j].
    rng = random.Random(104)
    for _ in range(10):
        lift = _random_lift(rng)
        xi = _random_gauge(rng, 2, lift.order)
        tangent = gauge_tangent(lift, xi)
        res = integrability_residuals(lift)
        lin = linearized_residuals(lift, tangent)
        for k in range(lift.order + 1):
            expected = MatrixForm.zero(2, (1, 1))
            for i in range(k + 1):
                expected = expected + _commutator(res[i], xi[k - i])
            assert lin[k] == expected


def test_order_bound_errors():
    # The residuals run through the lift's order N, and the tangent of the
    # linearization must have the lift's rank and reach N.
    lift = _random_lift(random.Random(0), order=2)
    t = _random_tangent(random.Random(1), 2, 1)
    with pytest.raises(ValueError, match="rank 2 and reach order 2"):
        linearized_residuals(lift, t)
    t = _random_tangent(random.Random(1), 3, 2)
    with pytest.raises(ValueError, match="rank 2 and reach order 2"):
        linearized_residuals(lift, t)


# -- a lift integrable through order one --------------------------------------


def _commuting_lift(c=QQi(1), order=3):
    """Constant Phi = c E21 dz with Psi_1 = c E12-free choice commuting at
    order 1: take Psi_1 proportional to E21 dzbar so [Phi ^ Psi_1] = 0."""
    return _low_pair(LambdaLift, E21_DZ * c,
                     MatrixForm.from_scalar_matrix([[0, 0], [c, 0]], (0, 1)), order)


def test_commuting_lift_is_integrable_to_order_one():
    lift = _commuting_lift(QQi(2, 1))
    res = integrability_residuals(lift)
    assert res[0].is_zero and res[1].is_zero


def _commutant_tangent(a, b, order=3):
    """a_0 and b_1 proportional to E21: linearized-integrable through
    order 1 at the commuting lift."""
    return _low_pair(TangentSeries, E21_DZ * a,
                     MatrixForm.from_scalar_matrix([[0, 0], [b, 0]], (0, 1)), order)


def test_commutant_tangent_solves_linearized_equations():
    lift = _commuting_lift(QQi(3))
    t = _commutant_tangent(QQi(1, 2), QQi(0, -1))
    lin = linearized_residuals(lift, t)
    assert lin[0].is_zero and lin[1].is_zero


# -- energy and the holomorphic two-form --------------------------------------


def test_energy_of_lift_hand_value():
    lift = _low_pair(LambdaLift, E21_DZ, E12_DZBAR, order=2)
    # tr(E21 E12) = tr(E22) = 1 in the canonical orientation.
    assert energy_of_lift(lift) == QQi(1)


def test_d_energy_is_the_exact_differential():
    rng = random.Random(105)
    for _ in range(10):
        lift = _random_lift(rng)
        t = _random_tangent(rng, 2, lift.order, zero_b0=True)
        quad = (energy_of_lift(_shift(lift, t, QQi(1))) - energy_of_lift(lift)
                - d_energy_of_lift(lift, t))
        # The remainder is the pure second-order term tr(a_0 ^ b_1).
        second = ENERGY_LIFT_COEFF * integrate_trace(
            wedge(t.a[0], t.b[1]))
        assert quad == second


def test_omega_hat_hand_value_and_antisymmetry():
    lift = _commuting_lift()
    order = lift.order
    t1 = _low_pair(TangentSeries, a0=E12_DZ, order=order)
    t2 = _low_pair(TangentSeries,
                   b1=MatrixForm.from_scalar_matrix([[0, 0], [QQi(1), 0]], (0, 1)),
                   order=order)
    # Only the first pairing survives: -tr(E12 E21) integrated, times the
    # prefactor -i/2.
    assert omega_hat(lift, t1, t2) == QQi(0, Fraction(1, 2))
    assert omega_hat(lift, t2, t1) == -omega_hat(lift, t1, t2)
    rng = random.Random(106)
    ta = _random_tangent(rng, 2, order)
    tb = _random_tangent(rng, 2, order)
    assert omega_hat(lift, ta, tb) == -omega_hat(lift, tb, ta)
    assert omega_hat(lift, ta, ta) == QQi(0)


def test_omega_hat_gauge_degeneracy():
    # At an integrable lift, gauge directions pair to zero with every
    # linearized-integrable direction.
    rng = random.Random(107)
    for _ in range(8):
        lift = _commuting_lift(random_qqi(rng))
        xi = _random_gauge(rng, 2, lift.order)
        g_dir = gauge_tangent(lift, xi)
        t = _commutant_tangent(random_qqi(rng), random_qqi(rng))
        assert omega_hat(lift, g_dir, t) == QQi(0)


def test_energy_gauge_invariance():
    # For a lift with holomorphic (constant) Phi the energy only sees the
    # gauge class: transform by determinant-one polynomial families.
    rng = random.Random(108)
    for _ in range(6):
        lift = _commuting_lift(random_qqi(rng))
        uppers = [_strict_upper_of_rank(rng, 2) for _ in range(lift.order)]
        moved = gauge_transform_lift(lift, uppers)
        assert energy_of_lift(moved) == energy_of_lift(lift)


def test_gauge_transform_against_series_arithmetic():
    # The moved lift z = g^-1 (x g + dg) solves g z = x g + dg: check
    # g B' = B g + dbar(g) and g A' = A g + t del(g) with plain series
    # convolutions, coefficient by coefficient.
    rng = random.Random(109)
    lift = _random_lift(rng, order=3)
    gs = [_strict_upper_of_rank(rng, 2), _strict_upper_of_rank(rng, 2)]
    n = lift.order
    gs_full = [IDENT] + gs + [MatrixForm.zero(2, (0, 0))] * (n - len(gs))

    def series_mul(xs, ys, bidegree):
        out = []
        for k in range(n + 1):
            acc = MatrixForm.zero(2, bidegree)
            for i in range(k + 1):
                if not (xs[i].is_zero or ys[k - i].is_zero):
                    acc = acc + wedge(xs[i], ys[k - i])
            out.append(acc)
        return out

    dbar_g = [dbar(g) for g in gs_full]
    del_g_shifted = [MatrixForm.zero(2, (1, 0))] + [del_op(g)
                                                    for g in gs_full[:-1]]
    moved = gauge_transform_lift(lift, gs)
    assert series_mul(gs_full, moved.b, (0, 1)) == [
        x + y for x, y in zip(series_mul(lift.b, gs_full, (0, 1)), dbar_g)]
    assert series_mul(gs_full, moved.a, (1, 0)) == [
        x + y for x, y in zip(series_mul(lift.a, gs_full, (1, 0)), del_g_shifted)]


def test_gauge_transform_by_the_empty_family_is_the_identity():
    # g_0 = 1 is implied, so the empty family (g_1, g_2, ...) is g(t) = 1.
    lift = _random_lift(random.Random(3))
    for empty in ([], ()):
        moved = gauge_transform_lift(lift, empty)
        assert moved.b == lift.b and moved.a == lift.a


def test_gauge_transform_conjugates_curvature():
    # Finite form of the conjugation identity: residuals of the moved lift
    # are R' = g^-1 R g, checked as g R' = R g order by order.
    rng = random.Random(110)
    lift = _random_lift(rng, order=2)
    gs = [_strict_lower(rng)]
    moved = gauge_transform_lift(lift, gs)
    n = lift.order
    gs_full = [IDENT] + gs + [MatrixForm.zero(2, (0, 0))] * (n - len(gs))
    res = integrability_residuals(lift)
    moved_res = integrability_residuals(moved)
    for k in range(n + 1):
        lhs = rhs = MatrixForm.zero(2, (1, 1))
        for i in range(k + 1):
            lhs = lhs + wedge(gs_full[i], moved_res[k - i])
            rhs = rhs + wedge(res[k - i], gs_full[i])
        assert lhs == rhs


def test_gauge_transform_of_a_truncated_lift_is_the_truncated_transform():
    # A truncated series product at order k reads only orders <= k of its
    # factors, so transforming the lift cut to order d gives the first d + 1
    # terms of the transform of the whole lift.
    rng = random.Random(114)
    for rank in (2, 3):
        for _ in range(2):
            lift = _random_lift(rng, rank=rank, order=4)
            gs = [MatrixForm((0, 0), [[random_fourier_scalar(rng) if c > r
                                       else FourierScalar()
                                       for c in range(rank)]
                                      for r in range(rank)])
                  for _ in range(3)]
            moved = gauge_transform_lift(lift, gs)
            for d in (1, 2, 3):
                cut = LambdaLift(lift.b[:d + 1], lift.a[:d + 1])
                cut_moved = gauge_transform_lift(cut, gs)
                assert cut_moved.a == moved.a[:d + 1]
                assert cut_moved.b == moved.b[:d + 1]


def test_gauge_inputs_are_polynomials():
    # A gauge direction xi or family g is zero past its last term: zero
    # terms appended to it change nothing, and the result has the lift's
    # order whatever the length of the input.
    rng = random.Random(124)
    for rank in (2, 3):
        for order in (1, 3):
            lift = _random_lift(rng, rank=rank, order=order)
            zeros = [MatrixForm.zero(rank)] * (order + 2)
            for count in (1, 2):
                xs = _random_gauge(rng, rank, count - 1)
                short, padded = gauge_tangent(lift, xs), gauge_tangent(lift, xs + zeros)
                assert short.order == padded.order == order
                assert short.b == padded.b and short.a == padded.a
                gs = [_strict_upper_of_rank(rng, rank) for _ in range(count)]
                moved = gauge_transform_lift(lift, gs)
                moved_padded = gauge_transform_lift(lift, gs + zeros)
                assert moved.order == moved_padded.order == order
                assert moved.b == moved_padded.b and moved.a == moved_padded.a


def test_residuals_run_through_the_lift_order():
    # N + 1 forms, t^0..t^N, for a lift of order N; the linearization stops
    # there too along a tangent that reaches further.
    rng = random.Random(125)
    for order in (1, 2, 4):
        lift = _random_lift(rng, order=order)
        assert len(integrability_residuals(lift)) == order + 1
        tangent = _random_tangent(rng, 2, order + 1)
        assert len(linearized_residuals(lift, tangent)) == order + 1


# -- circle-fixed lifts from graded data --------------------------------------

UNI = VhsBlockData((1, 1), (1, -1), label="uniformizing-like")


def test_fixed_lift_layout():
    lift = c_star_fixed_lift(UNI, E21_DZ)
    # UNI has l = 2 blocks, so the lift has order l + 1 = 3.
    assert lift.rank == 2 and lift.order == 3
    # dbar-part: the adjoint of the Higgs field sits at t^1.
    assert lift.b[1] == E12_DZBAR
    assert all(f.is_zero for f in lift.b[2:]) and lift.b[0].is_zero
    assert all(f.is_zero for f in lift.a[1:])
    assert lift.a[0] == E21_DZ


def test_fixed_lift_grade_slots():
    rng = random.Random(111)
    v = VhsBlockData((1, 1, 1), (2, 0, -2))
    higgs = random_pure_grade_form(rng, v, -1, (1, 0))
    beta = {2: random_pure_grade_form(rng, v, 2, (0, 1))}
    phi = {1: random_pure_grade_form(rng, v, 1, (1, 0), constant=True)}
    lift = c_star_fixed_lift(v, higgs, beta=beta, phi=phi)
    # beta of grade j occupies the t^j slot; phi of grade j the t^(j+1) slot.
    assert lift.b[2] == beta[2]
    assert lift.a[2] == phi[1]
    # Truncation bounds: dbar-part degree <= l, D-part <= l + 1.
    assert all(f.is_zero for f in lift.b[v.l + 1:])
    assert all(f.is_zero for f in lift.a[v.l + 2:])


def test_fixed_lift_validation():
    with pytest.raises(ValueError):
        c_star_fixed_lift(UNI, E12_DZ)  # wrong grade
    with pytest.raises(ValueError):
        c_star_fixed_lift(UNI, E21_DZ, beta={0: MatrixForm.zero(2, (0, 1))})
    with pytest.raises(ValueError):
        c_star_fixed_lift(UNI, E21_DZ, phi={-1: MatrixForm.zero(2, (1, 0))})


@pytest.mark.parametrize("fixed", [c_star_fixed_lift, bb_slice_residual])
@pytest.mark.parametrize("name, j, bidegree", [
    ("beta", 2, (0, 1)), ("beta", 9, (0, 1)), ("phi", 2, (1, 0)), ("phi", 9, (1, 0))])
def test_slice_data_in_grades_without_blocks(fixed, name, j, bidegree):
    # UNI has l = 2 blocks, so its grades run from -1 to 1: a datum of grade
    # 2 or more has no entries to live in.
    with pytest.raises(ValueError, match=f"{name}_{j}: .* to 1, not {j}"):
        fixed(UNI, E21_DZ, **{name: {j: MatrixForm.zero(2, bidegree)}})


def test_has_pure_grade():
    assert has_pure_grade(E21_DZ, UNI, -1)
    assert not has_pure_grade(E21_DZ, UNI, 1)
    assert has_pure_grade(E12_DZ, UNI, 1)
    mixed = E21_DZ + E12_DZ
    assert not any(has_pure_grade(mixed, UNI, k) for k in (-1, 0, 1))
    assert not has_pure_grade(E21_DZ, VhsBlockData((3,), (0,)), 0)


#: The scalars tried for the two fixed-point relations; the search singles
#: out -i for the lambda-derivative relation and the frozen XI_SCALAR_PHIPSI
#: for the order-zero one.
_XI_CANDIDATES = (QQi(0, -1), QQi(0, 1), QQi(-1), QQi(1))


def _dlambda_relation_holds(lift, xi, c):
    """-i t (d/dt) dbar(t) = dbar(t) . (c xi), order by order: -i k Psi_k is
    c [Psi_k, xi], plus c dbar(xi) at k = 0, where Psi_0 = 0."""
    return dbar(xi * c).is_zero and all(
        b * QQi(0, -k) == _commutator(b, xi) * c for k, b in enumerate(lift.b))


def _phipsi_relation_holds(lift, xi, c):
    """The order-zero relations with xi_0 = c xi: 0 = dbar(xi_0), Phi = [Phi, xi_0]."""
    return dbar(xi * c).is_zero and lift.a[0] == _commutator(lift.a[0], xi) * c


def test_fixed_relations_single_out_the_frozen_xi_scalars():
    rng = random.Random(112)
    v = VhsBlockData((1, 2), (2, -2))
    higgs = random_pure_grade_form(rng, v, -1, (1, 0))
    lift = c_star_fixed_lift(v, higgs,
                             beta={1: random_pure_grade_form(rng, v, 1, (0, 1))})
    xi = xi_matrix_form(v)
    assert [c for c in _XI_CANDIDATES
            if _dlambda_relation_holds(lift, xi, c)] == [QQi(0, -1)]
    assert [c for c in _XI_CANDIDATES
            if _phipsi_relation_holds(lift, xi, c)] == [XI_SCALAR_PHIPSI]
    # A lift whose Psi_1 is not an eigenvector of the bracket with xi.
    e21_dzbar = MatrixForm.from_scalar_matrix([[0, 0], [QQi(1), 0]], (0, 1))
    bad = _low_pair(LambdaLift, E21_DZ, E12_DZBAR + e21_dzbar, order=3)
    assert not any(_dlambda_relation_holds(bad, xi_matrix_form(UNI), c)
                   for c in _XI_CANDIDATES)


def test_second_variation_hand_value():
    lift = c_star_fixed_lift(UNI, E21_DZ)
    xi = xi_matrix_form(UNI) * QQi(-1)
    t = _low_pair(TangentSeries, E21_DZ, E12_DZBAR)
    assert second_variation(lift, t, xi) == QQi(2)
    assert QQi(2) * omega_hat(lift, t, circle_field(t)) == QQi(2)


def test_circle_field_hand_value():
    rng = random.Random(117)
    t = TangentSeries(
        tuple(random_matrix_form(rng, 2, (0, 1), trace_free=True) for _ in range(3)),
        tuple(random_matrix_form(rng, 2, (1, 0), trace_free=True) for _ in range(3)))
    field = circle_field(t)
    # b_k -> -i k b_k and a_k -> i (1 - k) a_k, entry by entry.
    for k, weight in enumerate((QQi(0), QQi(0, -1), QQi(0, -2))):
        assert field.b[k].entries == tuple(tuple(e * weight for e in row)
                                           for row in t.b[k].entries)
    for k, weight in enumerate((QQi(0, 1), QQi(0), QQi(0, -1))):
        assert field.a[k].entries == tuple(tuple(e * weight for e in row)
                                           for row in t.a[k].entries)
    assert field.b[0].is_zero and field.a[1].is_zero
    assert not any(f.is_zero for f in field.b[1:] + field.a[:1] + field.a[2:])


def test_second_variation_is_twice_omega_hat_on_the_circle_field():
    # The Hessian of the energy at a fixed lift is 2 Omega_hat(t, A t), A the
    # circle field, on graded tangents of every grade combination.
    rng = random.Random(113)
    v = VhsBlockData((1, 1, 1), (1, 0, -1))
    for _ in range(10):
        higgs = random_pure_grade_form(rng, v, -1, (1, 0), constant=True)
        lift = c_star_fixed_lift(v, higgs)
        xi = xi_matrix_form(v) * QQi(-1)
        g0 = rng.choice([-2, -1, 0, 1, 2])
        g1 = rng.choice([-2, -1, 0, 1, 2])
        t = TangentSeries((random_pure_grade_form(rng, v, -g0, (0, 1)),
                           random_pure_grade_form(rng, v, -g1, (0, 1))),
                          (random_pure_grade_form(rng, v, g1, (1, 0)),
                           random_pure_grade_form(rng, v, g0, (1, 0))))
        lhs = second_variation(lift, t, xi)
        assert lhs == QQi(2) * omega_hat(lift, t, circle_field(t))


def test_energy_differential_is_omega_hat_against_the_lift_field():
    # dE = -2 Omega_hat(X, .), X = circle_field of the lift itself: the
    # first-order relation whose derivative second_variation checks.
    rng = random.Random(118)
    nonzero = 0
    for i in range(30):
        lift = _random_lift(rng, rank=2 + i % 2, order=4)
        field = circle_field(lift)
        t = TangentSeries(
            tuple(random_matrix_form(rng, lift.rank, (0, 1), trace_free=True)
                  for _ in range(5)),
            tuple(random_matrix_form(rng, lift.rank, (1, 0), trace_free=True)
                  for _ in range(5)))
        de = d_energy_of_lift(lift, t)
        assert de == QQi(-2) * omega_hat(lift, field, t)
        nonzero += bool(de)
    assert nonzero >= 20


def test_a_lift_read_as_its_own_tangent():
    # Euler: the energy is a quadratic form in (b, a) and the curvature a
    # quadratic one plus the linear part dbar(a_k) + del(b_(k-1)), so along
    # the lift itself dE(L, L) = 2 E(L) and dR(L, L)_k + linear_k = 2 R_k.
    rng = random.Random(123)
    nonzero = 0
    for i in range(20):
        lift = _random_lift(rng, rank=2 + i % 2, order=3)
        energy = energy_of_lift(lift)
        assert d_energy_of_lift(lift, lift) == QQi(2) * energy
        nonzero += bool(energy)
        res = integrability_residuals(lift)
        lin = linearized_residuals(lift, lift)
        for k in range(4):
            linear = dbar(lift.a[k])
            if k:
                linear = linear + del_op(lift.b[k - 1])
            assert lin[k] + linear == res[k] * QQi(2)
    assert nonzero >= 10


def test_second_variation_precondition_errors():
    lift = c_star_fixed_lift(UNI, E21_DZ)
    t = _low_pair(TangentSeries)
    with pytest.raises(ValueError, match="Phi = "):
        second_variation(lift, t, xi_matrix_form(UNI))  # wrong sign of xi
    bad_xi = MatrixForm(
        (0, 0),
        [[FourierScalar.char(1, 0), FourierScalar()],
         [FourierScalar(), FourierScalar.char(1, 0, QQi(-1))]])
    with pytest.raises(ValueError, match="dbar"):
        second_variation(lift, t, bad_xi)


# -- affine-slice residuals and energy independence ---------------------------


def test_bb_residuals_grafting_shape():
    # Constant grade-1 datum with no beta: the residual vanishes identically.
    rng = random.Random(114)
    phi1 = random_pure_grade_form(rng, UNI, 1, (1, 0), constant=True)
    assert bb_slice_residual(UNI, E21_DZ, phi={1: phi1}).is_zero


def test_bb_residuals_report_nonzero_defect():
    rng = random.Random(115)
    phi1 = random_pure_grade_form(rng, UNI, 1, (1, 0))
    while dbar(phi1).is_zero:
        phi1 = random_pure_grade_form(rng, UNI, 1, (1, 0))
    assert bb_slice_residual(UNI, E21_DZ, phi={1: phi1}) == dbar(phi1)
    with pytest.raises(ValueError):
        bb_slice_residual(UNI, E21_DZ, beta={1: E21_DZ * QQi(1)})


def test_energy_ignores_beta_one():
    # The energy pairs the Higgs field only against the adjoint term: exact
    # beta contributions integrate away, single characters have no constant
    # mode.
    rng = random.Random(116)
    base = c_star_fixed_lift(UNI, E21_DZ)
    gamma = random_pure_grade_form(rng, UNI, 1, (0, 0))
    with_exact = c_star_fixed_lift(UNI, E21_DZ, beta={1: dbar(gamma)})
    assert energy_of_lift(with_exact) == energy_of_lift(base)
    char = random_pure_grade_form(rng, UNI, 1, (0, 1))
    # Strip any constant mode so the character test stays sharp.
    stripped = MatrixForm((0, 1),
                          [[e + FourierScalar.const(-e.constant_mode()) for e in row]
                           for row in char.entries])
    with_char = c_star_fixed_lift(UNI, E21_DZ, beta={1: stripped})
    assert energy_of_lift(with_char) == energy_of_lift(base)


# -- shapes, serialization, validation ----------------------------------------


def test_lift_accessors_and_errors():
    lift = LambdaLift([ZERO_B, E12_DZBAR, ZERO_B], [E21_DZ, ZERO_A, ZERO_A])
    assert lift.rank == 2 and lift.order == 2
    # Both parts are series in t, stored as tuples: a = (Phi, 0, 0) and
    # b = (0, Psi_1, 0).
    assert lift.a == (E21_DZ, ZERO_A, ZERO_A) and lift.b == (ZERO_B, E12_DZBAR, ZERO_B)
    # A lift is a series pair that stores (b, a) and nothing else.
    assert isinstance(lift, TangentSeries) and lift._fields == ("b", "a")
    with pytest.raises(ValueError, match="order N >= 1"):
        LambdaLift((ZERO_B,), (E21_DZ,))
    with pytest.raises(ValueError, match="orders 0..N"):
        LambdaLift((ZERO_B, E12_DZBAR, E12_DZBAR), (E21_DZ, E12_DZ))
    with pytest.raises(ValueError, match="b_1 has bidegree"):
        LambdaLift((ZERO_B, E12_DZ), (E21_DZ, E12_DZ))
    with pytest.raises(ValueError, match="b_0 = 0"):
        LambdaLift((E12_DZBAR, E12_DZBAR), (E21_DZ, E12_DZ))
    with pytest.raises(ValueError, match="b_1 has size 3, expected 2"):
        LambdaLift((ZERO_B, MatrixForm.zero(3, (0, 1))), (E21_DZ, ZERO_A))
    not_trace_free = MatrixForm.from_scalar_matrix([[QQi(1), 0], [0, QQi(1)]], (1, 0))
    with pytest.raises(ValueError, match="^a_0 must be trace-free$"):
        LambdaLift((ZERO_B, ZERO_B), (not_trace_free, ZERO_A))
    with pytest.raises(ValueError, match="^b_1 must be trace-free$"):
        LambdaLift((ZERO_B, conj_transpose(not_trace_free)), (E21_DZ, ZERO_A))


def test_lift_json_round_trip():
    rng = random.Random(117)
    lift = _random_lift(rng, order=2)
    back = LambdaLift.from_json(lift.to_json())
    assert back.rank == lift.rank and back.order == lift.order
    assert back.a == lift.a and back.b == lift.b


def test_lift_json_rejects_a_rank_or_order_that_disagrees_with_the_forms():
    doc = _random_lift(random.Random(122), order=2).to_json()
    assert (doc["rank"], doc["order"]) == (2, 2)
    for key, wrong in (("rank", 3), ("order", 1), ("order", 3), ("rank", "2")):
        with pytest.raises(ValueError, match="disagree with the forms"):
            LambdaLift.from_json(dict(doc, **{key: wrong}))


@pytest.mark.parametrize("key", ["rank", "order"])
def test_lift_json_rank_and_order_must_be_ints(key):
    # A rank-1 lift of order 1, where True and 1.0 equal the true values.
    zero_b, zero_a = MatrixForm.zero(1, (0, 1)), MatrixForm.zero(1, (1, 0))
    doc = LambdaLift((zero_b, zero_b), (zero_a, zero_a)).to_json()
    assert (doc["rank"], doc["order"]) == (1, 1)
    for wrong in (True, 1.0):
        with pytest.raises(ValueError, match="disagree with the forms"):
            LambdaLift.from_json(dict(doc, **{key: wrong}))


_LIFT_DOC = LambdaLift((MatrixForm.zero(1, (0, 1)),) * 2,
                       (MatrixForm.zero(1, (1, 0)),) * 2).to_json()


def _without(key):
    return {k: v for k, v in _LIFT_DOC.items() if k != key}


@pytest.mark.parametrize("doc, message", [
    ({}, "^field 'phi0' must be an object, got None$"),
    (5, "^field 'phi0' must be an object, got None$"),
    (_without("phi0"), "^field 'phi0' must be an object, got None$"),
    (dict(_LIFT_DOC, phi0=[]), r"^field 'phi0' must be an object, got \[\]$"),
    (_without("psi"), "^field 'psi' must be a list, got None$"),
    (dict(_LIFT_DOC, psi={}), r"^field 'psi' must be a list, got \{\}$"),
    (_without("phi"), "^field 'phi' must be a list, got None$"),
    (_without("rank"), "^declared rank None and order 1 disagree with the forms"),
], ids=["empty", "not-an-object", "no-phi0", "phi0-a-list", "no-psi", "psi-an-object",
        "no-phi", "no-rank"])
def test_lift_json_names_the_field_at_fault(doc, message):
    with pytest.raises(ValueError, match=message):
        LambdaLift.from_json(doc)


def test_tangent_and_gauge_series_validation():
    z = _low_pair(TangentSeries, order=2)
    assert z.rank == 2 and z.order == 2
    # A tangent need not be trace-free, a lift must.
    TangentSeries((ZERO_B,),
                  (MatrixForm.from_scalar_matrix([[QQi(1), 0], [0, QQi(1)]], (1, 0)),))
    with pytest.raises(ValueError):
        TangentSeries((MatrixForm.zero(2, (0, 1)),), ())
    with pytest.raises(ValueError):
        TangentSeries((), ())
    # An empty gauge direction is the zero polynomial: its tangent is zero.
    lift = _random_lift(random.Random(5))
    for empty in ([], ()):
        t = gauge_tangent(lift, empty)
        assert (t.rank, t.order) == (lift.rank, lift.order)
        assert all(f.is_zero for f in t.b + t.a)


@pytest.mark.parametrize("gauge, terms, message", [
    (gauge_tangent, (MatrixForm.zero(3),), "xi_0 has size 3, expected 2"),
    (gauge_tangent, (MatrixForm.zero(2), MatrixForm.zero(2, (1, 0))),
     r"xi_1 has bidegree \(1, 0\), expected \(0, 0\)"),
    (gauge_tangent, (MatrixForm.zero(2), IDENT), "xi_1 must be trace-free"),
    (gauge_transform_lift,
     (MatrixForm.from_scalar_matrix([[QQi(1), 0, 0], [0, QQi(1), 0], [0, 0, QQi(1)]],
                                    (0, 0)),), "g_1 has size 3, expected 2"),
    (gauge_transform_lift, (E11, MatrixForm.zero(2, (0, 1))),
     r"g_2 has bidegree \(0, 1\), expected \(0, 0\)"),
])
def test_gauge_inputs_name_the_term_that_is_wrong(gauge, terms, message):
    # g_1 = E11 has a trace and is a valid term: only xi must be trace-free.
    lift = _random_lift(random.Random(6))
    with pytest.raises(ValueError, match=f"^{message}$"):
        gauge(lift, terms)


def test_gauge_transform_names_a_family_of_varying_determinant():
    # g(t) = 1 + t diag(chi_(1,0), 0) has det 1 + t chi_(1,0), so g^-1 dbar g
    # gives b_1 a trace: only the output check can see it.
    g1 = MatrixForm((0, 0), [[FourierScalar.char(1, 0), FS_ZERO], [FS_ZERO, FS_ZERO]])
    with pytest.raises(ValueError, match=r"^gauge family g: det g\(t\) must be "
                       r"constant on the torus \(b_1 must be trace-free"):
        gauge_transform_lift(_low_pair(LambdaLift), (g1,))


@pytest.mark.parametrize("build, slot", [
    (lambda: TangentSeries((1,), (1,)), "b_0"),
    (lambda: TangentSeries((E12_DZBAR, "x"), (E21_DZ, E12_DZ)), "b_1"),
    (lambda: TangentSeries((E12_DZBAR, E12_DZBAR), (E21_DZ, None)), "a_1"),
    (lambda: LambdaLift((1,), (1,)), "b_0"),
    (lambda: gauge_tangent(_random_lift(random.Random(7)), (1,)), "xi_0"),
    (lambda: gauge_tangent(_random_lift(random.Random(7)), (MatrixForm.zero(2), 1)),
     "xi_1"),
    (lambda: gauge_transform_lift(_random_lift(random.Random(7)), (1,)), "g_1"),
    (lambda: gauge_transform_lift(_random_lift(random.Random(7)), (E11, None)),
     "g_2"),
])
def test_series_constructors_name_the_slot_that_is_not_a_form(build, slot):
    # Every series input, a pair side or a gauge direction or family: the
    # type is checked before the size is read, at every order.
    with pytest.raises(TypeError, match=f"^{slot} must be a MatrixForm$"):
        build()


# -- Laurent regluing, parameter involution -----------------------------------


def test_lift_to_laurent_and_glue():
    lift = c_star_fixed_lift(UNI, E21_DZ)
    lc = lift_to_laurent(lift)
    assert lc.dbar_ops == {0: "dbar"} and lc.d_ops == {1: "del"}
    assert set(lc.dbar_forms) == {1} and set(lc.d_forms) == {0}
    glued = deligne_glue(lc)
    # Exponents map j -> 1 - j and the two sides swap.
    assert glued.dbar_ops == {0: "del"} and glued.d_ops == {1: "dbar"}
    assert set(glued.dbar_forms) == {1} and set(glued.d_forms) == {0}
    assert glued.dbar_forms[1] == lc.d_forms[0]
    assert deligne_glue(glued) == lc


def test_dh_point_basics():
    rng = random.Random(118)
    b = random_matrix_form(rng, 2, (0, 1))
    a = random_matrix_form(rng, 2, (1, 0))
    with pytest.raises(ValueError):
        DHPoint(b, a, QQi(0))
    with pytest.raises(ValueError):
        DHPoint(a, b, QQi(1))  # swapped bidegrees
    p = DHPoint(b, a, QQi(1, 2))
    with pytest.raises(ValueError):
        c_star_on_point(QQi(0), p)
    q = c_star_on_point(QQi(0, 1), p)
    assert q.lam == QQi(0, 1) * QQi(1, 2)
    assert q.dbar_coeff == b and q.d_coeff == a * QQi(0, 1)


@pytest.mark.parametrize("b, a, error, message", [
    (ZERO_B, MatrixForm.zero(3, (1, 0)), ValueError, "d_coeff has size 3, expected 2"),
    (ZERO_A, ZERO_A, ValueError,
     r"dbar_coeff has bidegree \(1, 0\), expected \(0, 1\)"),
    (ZERO_B, ZERO_B, ValueError,
     r"d_coeff has bidegree \(0, 1\), expected \(1, 0\)"),
    (1, 2, TypeError, "dbar_coeff must be a MatrixForm"),
    (ZERO_B, 2, TypeError, "d_coeff must be a MatrixForm"),
])
def test_dh_point_checks_its_forms(b, a, error, message):
    # Each slot is checked as a form, its size against the other slot's.
    with pytest.raises(error, match=f"^{message}$"):
        DHPoint(b, a, QQi(1))


@pytest.mark.parametrize("lam", [2, 1.5])
def test_dh_point_takes_only_a_qqi_parameter(lam):
    # Checked before it is tested for zero: the involution divides by it.
    with pytest.raises(TypeError, match="^lam must be a QQi$"):
        DHPoint(ZERO_B, ZERO_A, lam)


def test_real_involution_dh_is_involutive():
    rng = random.Random(119)
    for _ in range(5):
        p = DHPoint(random_matrix_form(rng, 2, (0, 1)),
                    random_matrix_form(rng, 2, (1, 0)),
                    random_qqi(rng) + QQi(1))  # keep it nonzero
        assert real_involution_dh(real_involution_dh(p)) == p
        # It covers the antipodal map on the parameter.
        assert real_involution_dh(p).lam == QQi(-1) / p.lam.conjugate()


def test_real_involution_equivariance():
    rng = random.Random(120)
    p = DHPoint(random_matrix_form(rng, 2, (0, 1)),
                random_matrix_form(rng, 2, (1, 0)), QQi(2, 1))
    zeta = QQi(1, 3)
    lhs = real_involution_dh(c_star_on_point(zeta, p))
    rhs = c_star_on_point(QQi(1) / zeta.conjugate(), real_involution_dh(p))
    assert lhs == rhs


def test_chart_involution_composes_to_same_chart():
    # The same-chart involution is the chart triple reglued; compare it with
    # the explicit same-chart formula
    # (B, A, lam) -> (CT(A)/conj lam, -CT(B)/conj lam, -1/conj lam).
    rng = random.Random(121)
    b, a = random_matrix_form(rng, 2, (0, 1)), random_matrix_form(rng, 2, (1, 0))
    lam = QQi(3, -2)
    assert real_involution_chart(DHPoint(b, a, lam)) == (
        conj_transpose(b), -conj_transpose(a), -lam.conjugate())
    inv = QQi(1) / lam.conjugate()
    explicit = DHPoint(conj_transpose(a) * inv, conj_transpose(b) * (-inv), -inv)
    assert real_involution_dh(DHPoint(b, a, lam)) == explicit
