"""Acceptance suite: the thirteen headline guarantees of the toolkit.

Each test verifies one guarantee at its full stated size, measures the wall
time where a budget applies, and emits exactly one PASS/FAIL line on the
terminal (outside pytest's capture).  Everything is exact Gaussian-rational
arithmetic; there are no tolerances to tune.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from twistorsec import cli
from twistorsec import flat_model as fm
from twistorsec import projline as pl
from twistorsec import vhs
from twistorsec.lambda_lifts import (DHPoint, LambdaLift, TangentSeries,
                                     c_star_fixed_lift, c_star_on_point,
                                     circle_field,
                                     deligne_glue, gauge_tangent,
                                     integrability_residuals, lift_to_laurent,
                                     linearized_residuals,
                                     omega_hat, random_pure_grade_form,
                                     real_involution_dh,
                                     second_variation, xi_matrix_form)
from twistorsec.scalars import QQi, random_qqi
from twistorsec.torus_forms import (MatrixForm, dbar, integrate_trace,
                                    random_matrix_form, wedge)
from twistorsec.vhs import VhsBlockData

from curvature_oracle import composition_residuals


@pytest.fixture
def verdict(capsys):
    """One PASS/FAIL line per acceptance criterion, printed past capture."""

    def emit(label, ok, elapsed=None, budget=None):
        timing = ""
        if elapsed is not None:
            timing = f"  [{elapsed:.2f}s" + (
                f" / budget {budget:g}s]" if budget is not None else "]")
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  {label}{timing}", flush=True)
        assert ok, f"acceptance check failed: {label}"
        if budget is not None:
            assert elapsed < budget, (
                f"{label}: {elapsed:.2f}s exceeded the {budget:g}s budget")

    return emit


# -- 1: the rank-one chart algebra ---------------------------------------------


def test_acceptance_01_sl2_relations(verdict):
    t0 = time.monotonic()
    ok = (pl.sl2_bracket(pl.H, pl.E) == pl.Sl2Element(QQi(2), QQi(0), QQi(0))
          and pl.sl2_bracket(pl.H, pl.F) == pl.Sl2Element(QQi(0), QQi(0), QQi(-2))
          and pl.sl2_bracket(pl.E, pl.F) == pl.H
          and pl.killing(pl.H, pl.H) == QQi(8)
          and pl.killing(pl.H, pl.E) == QQi(0)
          and pl.killing(pl.H, pl.F) == QQi(0))
    verdict("01 sl2 brackets and Killing values", ok,
            time.monotonic() - t0, 1.0)


# -- 2: the two defining formulas of the holomorphic two-form ------------------


def test_acceptance_02_two_form_definitions_agree(verdict):
    rng = random.Random(0xA2)
    t0 = time.monotonic()
    agreements = 0
    for i in range(1000):
        d = 1 + i % 3
        s = fm.random_section(rng, d)
        V = fm.random_section(rng, d)
        W = fm.random_section(rng, d)
        if fm.omega0_killing(s, V, W) == fm.omega0_splitting(s, V, W):
            agreements += 1
    verdict("02 pairing-vs-splitting two-form agreement (1000 cases)",
            agreements == 1000, time.monotonic() - t0, 10.0)


# -- 3: the energy is a moment map ---------------------------------------------


def _symbolic_section(prefix, d):
    return fm.FlatSection(tuple(
        tuple(sympy.Symbol(f"{prefix}{b}_{name}")
              for name in ("a1", "a2", "b1", "b2"))
        for b in range(d)))


def test_acceptance_03_moment_map_identity(verdict):
    t0 = time.monotonic()
    ok = True
    # Exact polynomial-coefficient identity in all section coordinates.
    for d in (1, 2, 3):
        s = _symbolic_section("s", d)
        V = _symbolic_section("v", d)
        lhs = fm.d_energy(s, V)
        rhs = QQi(0, 1) * fm.omega0_killing(s, fm.fundamental_field(s), V)
        ok = ok and sympy.expand(lhs - rhs) == 0
    # Random point checks on top.
    rng = random.Random(0xA3)
    for i in range(1000):
        d = 1 + i % 3
        s = fm.random_section(rng, d)
        V = fm.random_section(rng, d)
        rhs = QQi(0, 1) * fm.omega0_killing(s, fm.fundamental_field(s), V)
        ok = ok and fm.d_energy(s, V) == rhs
    verdict("03 energy differential equals i * two-form(rotation, .)",
            ok, time.monotonic() - t0, 10.0)


# -- 4: critical points = rotation-fixed points = fixed endpoints --------------


def _gradient_vanishes(s):
    for b in range(s.d):
        for slot in range(4):
            direction = [[QQi(0)] * 4 for _ in range(s.d)]
            direction[b][slot] = QQi(1)
            if fm.d_energy(s, fm.FlatSection(tuple(map(tuple, direction)))):
                return False
    return True


def _rotation_field_vanishes(s):
    return fm.fundamental_field(s) == fm.zero_tangent(s.d)


def _endpoints_fixed(s):
    # Over 0 the rotation moves the w-coordinate; in the infinity chart it
    # moves the twisted v-side.
    at0 = all(not w for _, w in fm.evaluate(s, QQi(0)).coords)
    atinf = all(not v for v, _ in fm.evaluate(s, fm.INFINITY).coords)
    return at0 and atinf


def _on_subspace(s):
    return all(not a2 and not b1 for _, a2, b1, _ in s.blocks)


def test_acceptance_04_critical_fixed_equivalence(verdict):
    rng = random.Random(0xA4)
    ok = True
    for i in range(300):
        d = 1 + i % 3
        s = fm.random_section(rng, d)
        if i % 2 == 0:  # project onto the candidate subspace a2 = b1 = 0
            s = fm.FlatSection(tuple((a1, QQi(0), QQi(0), b2)
                                     for a1, _, _, b2 in s.blocks))
        conditions = (_gradient_vanishes(s), _rotation_field_vanishes(s),
                      _endpoints_fixed(s), _on_subspace(s))
        ok = ok and len(set(conditions)) == 1
    # Coordinate directions: exactly a2 and b1 break every condition.
    for slot, expect in ((0, True), (1, False), (2, False), (3, True)):
        direction = [[QQi(0)] * 4]
        direction[0][slot] = QQi(1)
        s = fm.FlatSection(tuple(map(tuple, direction)))
        conditions = (_gradient_vanishes(s), _rotation_field_vanishes(s),
                      _endpoints_fixed(s), _on_subspace(s))
        ok = ok and conditions == (expect,) * 4
    verdict("04 critical set = rotation-fixed set = fixed-endpoint set", ok)


# -- 5: the parameter-squaring twist -------------------------------------------


def test_acceptance_05_twist_on_fixed_locus(verdict):
    rng = random.Random(0xA5)
    ok = True
    for i in range(200):
        d = 1 + i % 3
        s = fm.random_section(rng, d)
        fixed = fm.FlatSection(tuple((a1, QQi(0), QQi(0), b2)
                                     for a1, _, _, b2 in s.blocks))
        ok = ok and fm.twist(fixed) == fixed  # defined and the identity
        blocks = [list(q) for q in s.blocks]
        blocks[i % d][1 + i % 2] = QQi(1, 1)  # force a2 or b1 nonzero
        moved = fm.FlatSection(tuple(map(tuple, blocks)))
        ok = ok and fm.twist(moved) is None  # undefined off the locus
    verdict("05 twist: identity on the fixed locus, undefined off it", ok)


# -- 6: graded energy, closed form versus recursion ----------------------------


def test_acceptance_06_graded_energy(verdict):
    t0 = time.monotonic()
    ok = True
    checked = 0
    # Exhaustive: up to four blocks, degrees bounded by 5, zero total degree.
    for l in range(1, 5):
        for head in itertools.product(range(-5, 6), repeat=l - 1):
            last = -sum(head)
            if abs(last) > 5:
                continue
            v = VhsBlockData((1,) * l, head + (last,))
            ok = ok and vhs.energy_closed(v) == vhs.energy_recursive(v)
            checked += 1
    # Large random cases, mixed ranks and fractional degrees.
    rng = random.Random(0xA6)
    for _ in range(10_000):
        v = vhs.random_vhs(rng)
        ok = ok and vhs.energy_closed(v) == vhs.energy_recursive(v)
    # The weight-one uniformizing family.
    for g in range(2, 11):
        v = VhsBlockData((1, 1), (g - 1, 1 - g))
        ok = ok and vhs.energy_closed(v) == 1 - g == vhs.energy_recursive(v)
    verdict(f"06 graded energy closed = recursive ({checked} exhaustive"
            " + 10000 random) and uniformizing 1-g",
            ok, time.monotonic() - t0, 5.0)


# -- 7: nonvanishing pullback degree -------------------------------------------


def test_acceptance_07_pullback_degree(verdict):
    ok = True
    for g in range(2, 41):
        v0 = VhsBlockData((1, 1), (g - 1, 1 - g))
        vinf = VhsBlockData((2,), (0,))
        degree = vhs.hyperhol_degree(v0, vinf)
        ok = ok and degree == 1 - g and degree != 0
    verdict("07 uniformizing-plus-irreducible pairing has degree 1-g != 0",
            ok)


# -- 8: Stokes vanishing and gauge degeneracy of the two-form ------------------


def _nilpotent_combo(rng, size, bidegree):
    """Random polynomial (without constant term) in the regular nilpotent."""
    c = np.full((size, size), QQi(0), dtype=object)
    for i in range(size - 1):
        c[i + 1, i] = QQi(1)
    power = c
    acc = np.full((size, size), QQi(0), dtype=object)
    for _ in range(size - 1):
        acc = acc + power * random_qqi(rng)
        power = power @ c
    return MatrixForm.from_scalar_matrix(acc, bidegree)


def test_acceptance_08_stokes_and_gauge_degeneracy(verdict):
    rng = random.Random(0xA8)
    t0 = time.monotonic()
    ok = True
    for i in range(200):
        size = 2 + i % 2
        # Stokes: the integral of any exact (1,1) trace vanishes.
        alpha = random_matrix_form(rng, size, (1, 0), mode_bound=3)
        ok = ok and integrate_trace(dbar(alpha)) == QQi(0)
        # An order-one integrable lift from commuting constant coefficients.
        phi0 = _nilpotent_combo(rng, size, (1, 0))
        psi1 = _nilpotent_combo(rng, size, (0, 1))
        zero_b, zero_a = MatrixForm.zero(size, (0, 1)), MatrixForm.zero(size, (1, 0))
        lift = LambdaLift((zero_b, psi1) + (zero_b,) * 3, (phi0,) + (zero_a,) * 4)
        res = integrability_residuals(lift)
        ok = ok and res[0].is_zero and res[1].is_zero
        xis = [random_matrix_form(rng, size, (0, 0), mode_bound=3, trace_free=True)
               for _ in range(5)]
        gauge_dir = gauge_tangent(lift, xis)
        tangent = TangentSeries((MatrixForm.zero(size, (0, 1)),
                                 _nilpotent_combo(rng, size, (0, 1)))
                                + tuple(MatrixForm.zero(size, (0, 1))
                                        for _ in range(3)),
                                (_nilpotent_combo(rng, size, (1, 0)),)
                                + tuple(MatrixForm.zero(size, (1, 0))
                                        for _ in range(4)))
        lin = linearized_residuals(lift, tangent)
        ok = ok and lin[0].is_zero and lin[1].is_zero
        ok = ok and omega_hat(lift, gauge_dir, tangent) == QQi(0)
    verdict("08 Stokes vanishing and two-form(gauge, integrable) = 0"
            " (200 cases)", ok, time.monotonic() - t0, 60.0)


# -- 9: second variation against the circle field -----------------------------

_GRADED_SHAPES = (
    ((1, 1), (1, -1)),
    ((1, 1), (3, -3)),
    ((1, 2), (2, -2)),
    ((1, 1, 1), (1, 0, -1)),
    ((1, 1, 1), (2, 0, -2)),
    ((2, 1, 2), (1, 1, -2)),
    ((1, 1, 1, 1), (2, 1, -1, -2)),
)


def test_acceptance_09_second_variation_weights(verdict):
    rng = random.Random(0xA9)
    ok = True
    for i in range(200):
        v = VhsBlockData(*_GRADED_SHAPES[i % len(_GRADED_SHAPES)])
        higgs = random_pure_grade_form(rng, v, -1, (1, 0), constant=True)
        lift = c_star_fixed_lift(v, higgs)
        xi = xi_matrix_form(v) * QQi(-1)
        g0 = rng.randrange(-(v.l - 1), v.l)
        g1 = rng.randrange(-(v.l - 1), v.l)
        t = TangentSeries(
            (random_pure_grade_form(rng, v, -g0, (0, 1)),
             random_pure_grade_form(rng, v, -g1, (0, 1))),
            (random_pure_grade_form(rng, v, g1, (1, 0)),
             random_pure_grade_form(rng, v, g0, (1, 0))))
        lhs = second_variation(lift, t, xi)
        ok = ok and lhs == QQi(2) * omega_hat(lift, t, circle_field(t))
    verdict("09 second variation equals 2 Omega_hat(t, A t), A the circle "
            "field (200 cases)", ok)


# -- 10: curvature coefficients against an independent expansion ---------------


def test_acceptance_10_integrability_oracle(verdict):
    rng = random.Random(0xAA)
    ok = True
    for i in range(200):
        size = 2 + i % 2
        a0 = random_matrix_form(rng, size, (1, 0), trace_free=True)
        b = tuple(random_matrix_form(rng, size, (0, 1), trace_free=True)
                  for _ in range(2))
        a = tuple(random_matrix_form(rng, size, (1, 0), trace_free=True)
                  for _ in range(2))
        lift = LambdaLift((MatrixForm.zero(size, (0, 1)),) + b, (a0,) + a)
        u = random_matrix_form(rng, size, (0, 0))
        model = integrability_residuals(lift)
        oracle = composition_residuals(lift, u, 1)
        ok = ok and all(wedge(model[k], u) == oracle[k] for k in range(2))
    verdict("10 curvature orders 0-1 match the operator-composition oracle"
            " (200 cases)", ok)


# -- 11: the antiholomorphic involutions and the regluing ----------------------


def _nonzero_qqi(rng):
    z = random_qqi(rng)
    return z if z else QQi(1, 1)


def test_acceptance_11_involutions(verdict):
    rng = random.Random(0xAB)
    ok = True
    for i in range(100):
        d = 1 + i % 3
        s = fm.random_section(rng, d)
        ok = ok and fm.real_involution(fm.real_involution(s)) == s
        zeta = _nonzero_qqi(rng)
        lhs = fm.real_involution(fm.group_action(zeta, s))
        rhs = fm.group_action(QQi(1) / zeta.conjugate(), fm.real_involution(s))
        ok = ok and lhs == rhs
    for _ in range(50):
        p = DHPoint(random_matrix_form(rng, 2, (0, 1)),
                    random_matrix_form(rng, 2, (1, 0)), _nonzero_qqi(rng))
        ok = ok and real_involution_dh(real_involution_dh(p)) == p
        zeta = _nonzero_qqi(rng)
        lhs = real_involution_dh(c_star_on_point(zeta, p))
        rhs = c_star_on_point(QQi(1) / zeta.conjugate(), real_involution_dh(p))
        ok = ok and lhs == rhs
    for _ in range(20):
        phi0 = random_matrix_form(rng, 2, (1, 0), trace_free=True)
        psi1 = random_matrix_form(rng, 2, (0, 1), trace_free=True)
        zero_b, zero_a = MatrixForm.zero(2, (0, 1)), MatrixForm.zero(2, (1, 0))
        lift = LambdaLift((zero_b, psi1, zero_b, zero_b), (phi0, zero_a, zero_a, zero_a))
        lc = lift_to_laurent(lift)
        ok = ok and deligne_glue(deligne_glue(lc)) == lc
    verdict("11 involutions square to one and intertwine the scaling action",
            ok)


# -- 12: scaling-family exponents ----------------------------------------------


def test_acceptance_12_scaling_exponents(verdict):
    rng = random.Random(0xAC)
    ok = True
    for _ in range(1000):
        v = vhs.random_vhs(rng)
        ok = ok and vhs.det_exponent(v) == 0
        w = vhs.xi_weights(v)
        for i in range(1, v.l + 1):
            for j in range(1, v.l + 1):
                ok = ok and w[i - 1] - w[j - 1] == i - j
    verdict("12 unit determinant and conjugation weight = grade (1000 cases)",
            ok)


# -- 13: deterministic command line --------------------------------------------


#: sha256 of the `verify --seed 42 --cases 6` JSON report.  A change to the
#: arithmetic or the suites that alters any record or the config block shows
#: up here.
GOLDEN_REPORT_SHA256 = (
    "4b6971b068a75b924d47cb5c99d11df17e6668900f91e7e7a146900bae8dad08")


def test_acceptance_13_cli_determinism(verdict, tmp_path):
    args = ["verify", "--seed", "42", "--cases", "6"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok = cli.main(args + ["--out", str(out1)]) == 0
    ok = ok and cli.main(args + ["--out", str(out2)]) == 0
    ok = ok and out1.read_bytes() == out2.read_bytes()
    ok = ok and hashlib.sha256(out1.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256
    table = tmp_path / "table.json"
    ok = cli.main(["vhs-energy", "--out", str(table)]) == 0 and ok
    rows = {r["label"]: r
            for r in json.loads(table.read_text(encoding="utf-8"))["rows"]}
    for g in range(2, 11):
        row = rows[f"uniformizing-g{g}"]
        ok = (ok and row["energy"] == str(1 - g)
              and row["hyperhol_degree"] == str(1 - g))
    verdict("13 byte-identical reports and shipped energy/degree table", ok)
