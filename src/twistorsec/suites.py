"""Named verification suites over seeded random data.

Each suite checks one invariant group of the library and returns one record
per verified identity.  Suites draw their randomness from a generator seeded
by (config seed, suite name), so a fixed configuration reproduces the exact
same report bytes.  The heavyweight exhaustive sweeps live in the test suite;
these runs are sized by ``config.cases`` to stay interactive.
"""

from __future__ import annotations

import itertools
import os
import random
import reprlib
from fractions import Fraction
from functools import reduce
from operator import add, mul

from . import flat_model as fm
from . import lambda_lifts as ll
from . import projline as pl
from . import torus_forms as tf
from . import vhs
from .constants import ENERGY_LIFT_COEFF, REALITY_SIGN, XI_SCALAR_PHIPSI
from .report import check, check_true, load_vhs_dataset
from .scalars import QQi, draw, random_nonzero_qqi, random_qqi

_BASIS = {"e": pl.E, "h": pl.H, "f": pl.F}
#: (name, x, y, z) for every ordered triple of basis elements.
_TRIPLES = [(nx + ny + nz, x, y, z) for (nx, x), (ny, y), (nz, z)
            in itertools.product(_BASIS.items(), repeat=3)]


def _rng_for(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _random_sl2(rng) -> pl.Sl2Element:
    return pl.Sl2Element(random_qqi(rng), random_qqi(rng), random_qqi(rng))


def _cycle(values, i):
    return values[i % len(values)]


def _lift_rank(cfg, i):  # 2..rank_bound in turn: RunConfig requires rank_bound >= 2
    return _cycle(range(2, cfg.rank_bound + 1), i)


# -- projline -----------------------------------------------------------------


def _jacobi(x, y, z) -> pl.Sl2Element:
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]], zero in a Lie algebra."""
    return (pl.sl2_bracket(x, pl.sl2_bracket(y, z))
            + pl.sl2_bracket(y, pl.sl2_bracket(z, x))
            + pl.sl2_bracket(z, pl.sl2_bracket(x, y)))


def _ad_invariance(x, y, z) -> QQi:
    """K([x, y], z) + K(y, [x, z]), zero for an ad-invariant form K."""
    return pl.killing(pl.sl2_bracket(x, y), z) + pl.killing(y, pl.sl2_bracket(x, z))


def suite_sl2_jacobi(cfg, rng, entries):
    zero = pl.Sl2Element(QQi(0), QQi(0), QQi(0))
    out = [check(f"basis-{name}", zero, _jacobi(x, y, z), "structure constants")
           for name, x, y, z in _TRIPLES]
    for i in range(cfg.cases):
        x, y, z = (_random_sl2(rng) for _ in range(3))
        out.append(check(f"random-{i:04d}", zero, _jacobi(x, y, z),
                         "structure constants"))
    return out


def suite_killing_form(cfg, rng, entries):
    out = [check("value-hh", QQi(8), pl.killing(pl.H, pl.H), "hand value"),
           check("value-ef", QQi(4), pl.killing(pl.E, pl.F), "hand value"),
           check("value-he", QQi(0), pl.killing(pl.H, pl.E), "hand value"),
           check("value-hf", QQi(0), pl.killing(pl.H, pl.F), "hand value")]
    out += [check(f"symmetric-{nx}{ny}", pl.killing(x, y), pl.killing(y, x),
                  "trace symmetry")
            for (nx, x), (ny, y) in itertools.product(_BASIS.items(), repeat=2)]
    out += [check(f"invariant-{name}", QQi(0), _ad_invariance(x, y, z), "ad-invariance")
            for name, x, y, z in _TRIPLES]
    for i in range(cfg.cases):
        x, y, z = (_random_sl2(rng) for _ in range(3))
        out.append(check(f"random-invariant-{i:04d}", QQi(0), _ad_invariance(x, y, z),
                         "ad-invariance"))
    return out


def _random_degree_one(rng) -> pl.PolySection:
    return pl.PolySection((random_qqi(rng), random_qqi(rng)))


def suite_wronskian_pairing(cfg, rng, entries):
    out = [check("hand-const-lambda", QQi(1),
                 pl.wronskian(pl.PolySection((QQi(1), QQi(0))),
                              pl.PolySection((QQi(0), QQi(1)))), "hand value"),
           check("hand-mixed", QQi(-5),
                 pl.wronskian(pl.PolySection((QQi(2), QQi(3))),
                              pl.PolySection((QQi(1), QQi(-1)))), "hand value")]
    for i in range(cfg.cases):
        p, q, r = (_random_degree_one(rng) for _ in range(3))
        c = random_qqi(rng)
        out.append(check(f"antisymmetric-{i:04d}", -pl.wronskian(p, q),
                         pl.wronskian(q, p), "bilinear algebra"))
        lin = pl.PolySection((p.coeffs[0] + c * r.coeffs[0],
                              p.coeffs[1] + c * r.coeffs[1]))
        out.append(check(f"bilinear-{i:04d}",
                         pl.wronskian(p, q) + c * pl.wronskian(r, q),
                         pl.wronskian(lin, q), "bilinear algebra"))
        out.append(check(f"chart-agreement-{i:04d}", pl.wronskian(p, q),
                         pl.wronskian_infinity_chart(p, q), "transition cocycle"))
        if bool(p.coeffs[0]) or bool(p.coeffs[1]):
            basis = (pl.PolySection((QQi(1), QQi(0))),
                     pl.PolySection((QQi(0), QQi(1))))
            hit = any(bool(pl.wronskian(p, b)) for b in basis)
            out.append(check_true(f"nondegenerate-{i:04d}", hit,
                                  "some basis pairing is nonzero", "bilinear algebra"))
    return out


def suite_chart_involution(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        k = _cycle(range(7), i)
        p = pl.PolySection(tuple(random_qqi(rng) for _ in range(k + 1)))
        back = p.chart_involution().chart_involution()
        out.append(check(f"poly-deg{k}-{i:04d}", p, back, "coefficient reversal"))
    return out


# -- flat model ---------------------------------------------------------------


def _random_flat(rng, i):
    return fm.random_section(rng, _cycle((1, 2, 3), i))


def suite_omega0_invariance(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        v = fm.random_section(rng, s.d)
        w = fm.random_section(rng, s.d)
        zeta = random_nonzero_qqi(rng)
        lhs = fm.omega0_killing(fm.group_action(zeta, s),
                                fm.group_action(zeta, v),
                                fm.group_action(zeta, w))
        out.append(check(f"case-{i:04d}", fm.omega0_killing(s, v, w), lhs,
                         "scaling action"))
    return out


def suite_energy_invariance(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        zeta = random_nonzero_qqi(rng)
        out.append(check(f"case-{i:04d}", fm.energy(s),
                         fm.energy(fm.group_action(zeta, s)), "scaling action"))
    return out


def suite_tau_equivariance(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        zeta = random_nonzero_qqi(rng)
        lhs = fm.real_involution(fm.group_action(zeta, s))
        rhs = fm.group_action(QQi(1) / zeta.conjugate(), fm.real_involution(s))
        out.append(check(f"case-{i:04d}", rhs, lhs, "antiholomorphic involution"))
        out.append(check(f"involution-{i:04d}", s,
                         fm.real_involution(fm.real_involution(s)),
                         "antiholomorphic involution"))
    return out


def suite_moment_map(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        v = fm.random_section(rng, s.d)
        lhs = fm.d_energy(s, v)
        rhs = QQi(0, 1) * fm.omega0_killing(s, fm.fundamental_field(s), v)
        out.append(check(f"identity-{i:04d}", rhs, lhs, "energy differential"))
        fixed = fm.fixed_part(s)
        out.append(check(f"fixed-field-{i:04d}", fm.zero_tangent(s.d),
                         fm.fundamental_field(fixed), "fixed locus"))
        out.append(check(f"fixed-denergy-{i:04d}", QQi(0), fm.d_energy(fixed, v),
                         "fixed locus"))
        if fm.twist(s) is None:  # off the circle-fixed locus
            # Along V = tau(s), va2 = -conj(b1) and vb1 = -conj(a2) per block,
            # so d_energy gives dE(s, tau(s)) = -c * sum(|a2|^2 + |b1|^2) with
            # c = ENERGY_BLOCK_COEFF: nonzero exactly off the fixed locus.
            nonzero = bool(fm.d_energy(s, fm.real_involution(s)))
            out.append(check_true(f"moving-denergy-{i:04d}", nonzero,
                                  "a probe direction sees a nonzero derivative",
                                  "fixed locus"))
            out.append(check_true(f"moving-field-{i:04d}",
                                  fm.fundamental_field(s) != fm.zero_tangent(s.d),
                                  "rotation field is nonzero off the fixed locus",
                                  "fixed locus"))
    # The residue form is the moment map: three draws, whatever cfg.cases is.
    for k in range(3):
        s = _random_flat(rng, k)
        t, l = random_qqi(rng), random_nonzero_qqi(rng)
        out.append(check(f"residue-base-{k}", fm.energy(s) * l,
                         fm.residue_form_phi(s, t, l, fm.zero_tangent(s.d)),
                         "residue form"))
        v = fm.random_section(rng, s.d)
        out.append(check(f"residue-fixed-{k}", QQi(0),
                         fm.residue_form_phi(fm.fixed_part(s), t, l, v),
                         "residue form"))
    # A moving section (b1 != 0 in block 0) probed at t != 0 along V, the unit
    # a1 direction of block 0.  With X = (0, -i a2, i b1, 0), X(t) = (-i a2 t,
    # i b1) and V(t) = (1, 0) in block 0, so omega = dv ^ dxi gives
    # omega(X(t), V(t)) = (-i a2 t) * 0 - 1 * (i b1) = -i b1.
    a1, a2, b1, b2 = (random_qqi(rng), random_nonzero_qqi(rng),
                      random_nonzero_qqi(rng), random_qqi(rng))
    s = fm.FlatSection(((a1, a2, b1, b2),) + fm.random_section(rng, 1).blocks)
    t, l = random_nonzero_qqi(rng), random_nonzero_qqi(rng)
    unit = fm.FlatSection(((QQi(1), QQi(0), QQi(0), QQi(0)), (QQi(0),) * 4))
    out.append(check("residue-probe", fm.energy(s) * l - QQi(0, 1) * b1,
                     fm.residue_form_phi(s, t, l, unit), "residue form"))
    out.append(check("energy-infinity", QQi(0), fm.energy(s) + fm.energy_infinity(s),
                     "chart change"))
    # With a2 = 0 but b1 != 0, xi(t^2)/t keeps a pole at t = 0.
    out.append(check_true("twist-moving-b1",
                          fm.twist(fm.FlatSection(((a1, QQi(0), b1, b2),))) is None,
                          "a section with a2 = 0 and b1 != 0 does not twist",
                          "fixed locus"))
    # A section on the fixed locus a2 = b1 = 0, with a1 != 0, is its own
    # projection and its own twist.
    on = fm.FlatSection(tuple((random_nonzero_qqi(rng), QQi(0), QQi(0), random_qqi(rng))
                              for _ in range(2)))
    out.append(check("on-locus-fixed-part", on, fm.fixed_part(on), "fixed locus"))
    out.append(check("on-locus-twist", on, fm.twist(on), "fixed locus"))
    return out


def _vanishing_at(rng, d: int, x) -> fm.FlatSection:
    """A random tangent in the kernel of evaluation at x, block by block."""
    r0, r1 = fm.evaluation_row(x)
    blocks = []
    for _ in range(d):
        alpha, beta = random_qqi(rng), random_qqi(rng)
        blocks.append((-alpha * r1, alpha * r0, -beta * r1, beta * r0))
    return fm.FlatSection(tuple(blocks))


def suite_evaluation_fiber(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        x = (QQi(0), pl.INFINITY, random_qqi(rng))[i % 3]
        v = _vanishing_at(rng, s.d, x)
        w = _vanishing_at(rng, s.d, x)
        out.append(check(f"metric-{i:04d}", QQi(0),
                         fm.holomorphic_metric(s, v, w), "common zero"))
        if x is pl.INFINITY or not x:
            # the split form carried by the library is centered at 0/infinity
            out.append(check(f"omega-{i:04d}", QQi(0),
                             fm.omega0_splitting(s, v, w), "common zero"))
            out.append(check(f"omega-pairing-{i:04d}", QQi(0),
                             fm.omega0_killing(s, v, w), "common zero"))
        else:
            # at other centers the fiber form reduces to -i g on fiber tangents
            out.append(check(f"omega-{i:04d}", QQi(0),
                             QQi(0, -1) * fm.holomorphic_metric(s, v, w),
                             "common zero"))
    # A tangent vanishing at x evaluates to zero there: three draws, whatever
    # cfg.cases is, at 0, at infinity and at a nonzero finite point.
    for k in range(3):
        s = _random_flat(rng, k)
        x = (QQi(0), pl.INFINITY, random_nonzero_qqi(rng))[k]
        out.append(check(f"fiber-zero-{k}", fm.FlatPoint(((QQi(0), QQi(0)),) * s.d),
                         fm.evaluate(_vanishing_at(rng, s.d, x), x), "common zero"))
    # The splitting construction of Omega_0 against the Killing pairing, at
    # general tangents where both are nonzero: three draws, whatever
    # cfg.cases is.
    for k in range(3):
        s = _random_flat(rng, k)
        v, w = fm.random_section(rng, s.d), fm.random_section(rng, s.d)
        out.append(check(f"split-{k}", fm.omega0_killing(s, v, w),
                         fm.omega0_splitting(s, v, w), "two constructions"))
    return out


def suite_omega0_reality(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        v = fm.random_section(rng, s.d)
        w = fm.random_section(rng, s.d)
        lhs = fm.omega0_killing(fm.real_involution(s), fm.real_involution(v),
                                fm.real_involution(w))
        out.append(check(f"case-{i:04d}", fm.omega0_killing(s, v, w).conjugate(), lhs,
                         "antiholomorphic involution"))
    return out


def suite_energy_reality(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        s = _random_flat(rng, i)
        total = (fm.energy(fm.real_involution(s)).conjugate()
                 - REALITY_SIGN * fm.energy(s))
        out.append(check(f"case-{i:04d}", QQi(0), total, "antiholomorphic involution"))
    return out


# -- graded block data --------------------------------------------------------


def _uniformizing_genus(e: vhs.VhsBlockData):
    """The genus g of a dataset entry labelled uniformizing-g<g>, else None."""
    head, sep, g = e.label.partition("uniformizing-g")
    if head or not sep:
        return None
    try:
        genus = int(g) if g.isdecimal() and str(int(g)) == g else 0
    except ValueError:  # more digits than int() reads
        genus = 0
    if genus < 2:  # one case name per genus; the degree 1 - g is nonzero for g >= 2
        raise ValueError(f"dataset entry {reprlib.repr(e.label)}: "
                         f"expected uniformizing-g<genus> with genus >= 2")
    return genus


def suite_vhs_energy(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        v = vhs.random_vhs(rng)
        out.append(check(f"closed-vs-recursive-{i:04d}", vhs.energy_closed(v),
                         vhs.energy_recursive(v), "telescoping sum"))
    for e in entries:
        g = _uniformizing_genus(e)
        if g is not None:
            out.append(check(f"dataset-{e.label}", Fraction(1 - g),
                             vhs.energy_closed(e), f"dataset:{e.label}"))
        elif e.label == "three-block-2-0-m2":
            out.append(check(f"dataset-{e.label}", Fraction(-4),
                             vhs.energy_closed(e), f"dataset:{e.label}"))
        elif e.l == 1:
            out.append(check(f"dataset-{e.label}", Fraction(0),
                             vhs.energy_closed(e), f"dataset:{e.label}"))
    for g in (2, 5, 9):
        out.append(check(f"grafting-g{g}", Fraction(1 - g),
                         vhs.energy_closed(vhs.grafting_data(g)), "grafting family"))
    return out


def _random_vhs_with_n(rng, n: int) -> vhs.VhsBlockData:
    parts = draw(rng, 1, n)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    ranks = tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (n,)))
    head = [draw(rng, -9, 9) for _ in range(parts - 1)]
    return vhs.VhsBlockData(ranks, tuple(head + [-sum(head)]))


def suite_hyperhol_degree(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        v0 = vhs.random_vhs(rng)
        vinf = _random_vhs_with_n(rng, v0.n)
        got = vhs.hyperhol_degree(v0, vinf)
        total = vhs.energy_closed(v0) + vhs.energy_closed(vinf)
        out.append(check(f"sum-{i:04d}", total, got, "degree additivity"))
        out.append(check_true(f"integral-{i:04d}", Fraction(got).denominator == 1,
                              "integer for integral block degrees",
                              "degree additivity"))
    by_label = {e.label: e for e in entries}
    for v0 in entries:
        g = _uniformizing_genus(v0)
        if g is None:
            continue
        got = vhs.hyperhol_degree(v0, by_label[v0.pair])
        out.append(check(f"uniformizing-g{g}", Fraction(1 - g), got,
                         f"dataset:uniformizing-g{g}"))
        out.append(check_true(f"nonzero-g{g}", got != 0,
                              "degree is nonzero", f"dataset:uniformizing-g{g}"))
    return out


def suite_det_exponent(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        v = vhs.random_vhs(rng)
        out.append(check(f"case-{i:04d}", Fraction(0), vhs.det_exponent(v),
                         "weight balancing"))
    return out


def suite_grade_bracket(cfg, rng, entries):
    # [M, xi]_rc = M_rc (xi_cc - xi_rr) for a diagonal xi, so a diagonal xi
    # whose weight differences are the grades gives [M, xi] = k M for every
    # grade-k M.  Each record checks that on every entry of xi.
    zero = QQi(0)
    detail = "diagonal xi, xi_cc - xi_rr = the grade of (r, c)"
    out = []
    for i in range(cfg.cases):
        v = vhs.random_vhs(rng)
        xi, grades = vhs.xi_matrix(v), vhs.grades(v)
        diag = [xi[r][r] for r in range(v.n)]
        weight = {k: QQi(k) for k in range(1 - v.l, v.l)}
        graded = all(
            [x for c, x in enumerate(xi[r]) if c != r] == [zero] * (v.n - 1)
            and [d - diag[r] for d in diag] == [weight[k] for k in grades[r]]
            for r in range(v.n))
        out.append(check_true(f"case-{i:04d}", graded, detail, "diagonal weights"))
    return out


def suite_xi_weights(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        v = vhs.random_vhs(rng)
        w = vhs.xi_weights(v)
        steps = all(w[j + 1] - w[j] == 1 for j in range(len(w) - 1))
        out.append(check_true(f"steps-{i:04d}", steps,
                              "weights increase by exactly 1", "grading"))
        out.append(check(f"trace-{i:04d}", Fraction(0), vhs.det_exponent(v),
                         "grading"))
    return out


# -- torus backend ------------------------------------------------------------


def suite_stokes(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        size = _cycle(range(1, cfg.rank_bound + 1), i)
        a10 = tf.random_matrix_form(rng, size, (1, 0), cfg.mode_bound, 3)
        a01 = tf.random_matrix_form(rng, size, (0, 1), cfg.mode_bound, 3)
        out.append(check(f"dbar-{i:04d}", QQi(0),
                         tf.integrate_trace(tf.dbar(a10)), "constant-mode kill"))
        out.append(check(f"del-{i:04d}", QQi(0),
                         tf.integrate_trace(tf.del_op(a01)), "constant-mode kill"))
    return out


def _dbar_del_sum(f):
    """dbar(del f) + del(dbar f), zero for every function f."""
    return tf.dbar(tf.del_op(f)) + tf.del_op(tf.dbar(f))


def suite_d_squared(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        size = _cycle(range(1, cfg.rank_bound + 1), i)
        f = tf.random_matrix_form(rng, size, (0, 0), cfg.mode_bound, 3)
        out.append(check_true(f"mixed-{i:04d}", _dbar_del_sum(f).is_zero,
                              "dbar del + del dbar annihilates functions",
                              "mode symbols"))
    const = tf.MatrixForm.from_scalar_matrix(((QQi(3), QQi(0)), (QQi(0), QQi(3))))
    out.append(check_true("mixed-constant", _dbar_del_sum(const).is_zero,
                          "dbar del + del dbar annihilates constants",
                          "mode symbols"))
    # Each symbol on one character: D chi_(1,2) = (2+i) chi_(1,2) and
    # Dbar chi_(1,2) = (-2+i) chi_(1,2).  The sums above cannot tell a wrong
    # symbol from a right one.
    char = tf.MatrixForm((0, 0), ((tf.FourierScalar.char(1, 2),),))
    for name, op, bidegree, symbol in (("del", tf.del_op, (1, 0), QQi(2, 1)),
                                       ("dbar", tf.dbar, (0, 1), QQi(-2, 1))):
        want = tf.MatrixForm(bidegree, ((tf.FourierScalar.char(1, 2, symbol),),))
        out.append(check(f"symbol-{name}", want, op(char), "mode symbols"))
    for name, op, bidegree in (("dbar", tf.dbar, (0, 1)), ("del", tf.del_op, (1, 0))):
        try:
            op(tf.MatrixForm.zero(2, bidegree))
            raised = False
        except ValueError:
            raised = True
        out.append(check_true(f"no-second-{name}", raised,
                              f"{name} twice leaves the representable degrees",
                              "degree bookkeeping"))
    return out


def suite_trace_cyclicity(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        size = _cycle(range(1, cfg.rank_bound + 1), i)
        a = tf.random_matrix_form(rng, size, (1, 0), cfg.mode_bound, 3)
        b = tf.random_matrix_form(rng, size, (0, 1), cfg.mode_bound, 3)
        total = tf.integrate_trace(tf.wedge(a, b)) + tf.integrate_trace(tf.wedge(b, a))
        out.append(check(f"case-{i:04d}", QQi(0), total, "trace cyclicity"))
    return out


def suite_backend_exactness(cfg, rng, entries):
    out = []
    cases = max(3, cfg.cases // 5)
    for i in range(cases):
        f = tf.random_matrix_form(rng, 4, (0, 0), 5, 4)
        a = tf.random_matrix_form(rng, 4, (1, 0), 5, 4)
        b = tf.random_matrix_form(rng, 4, (0, 1), 5, 4)
        out.append(check(f"stokes-{i:04d}", QQi(0),
                         tf.integrate_trace(tf.dbar(a)) + tf.integrate_trace(tf.del_op(b)),
                         "boundary sizes"))
        out.append(check_true(f"mixed-{i:04d}", _dbar_del_sum(f).is_zero,
                              "second derivatives cancel at rank 4, modes 5",
                              "boundary sizes"))
        out.append(check(f"adjoint-{i:04d}", a, tf.conj_transpose(tf.conj_transpose(a)),
                         "boundary sizes"))
    # One adjoint by hand, which the involution above cannot pin: the
    # coefficient is conjugated, its mode negated, its entry transposed, and
    # a (1,1) form changes sign.
    zero = tf.FS_ZERO
    f11 = tf.MatrixForm((1, 1), ((zero, tf.FourierScalar.char(1, 2, QQi(3, 4))),
                                 (zero, zero)))
    want = tf.MatrixForm((1, 1), ((zero, zero),
                                  (tf.FourierScalar.char(-1, -2, QQi(-3, 4)), zero)))
    out.append(check("adjoint-volume-form", want, tf.conj_transpose(f11),
                     "conjugate transpose"))
    return out


# -- lambda-connection lifts --------------------------------------------------


def _random_coeffs(cfg, rng, size, bidegree, count):
    return [tf.random_matrix_form(rng, size, bidegree, cfg.mode_bound, 2,
                                  trace_free=True) for _ in range(count)]


def _random_lift(cfg, rng, size, order):
    """A random lift of the order: b_1..b_N, then a_1..a_N, then a_0."""
    b = _random_coeffs(cfg, rng, size, (0, 1), order)
    a = _random_coeffs(cfg, rng, size, (1, 0), order)
    return ll.LambdaLift([tf.MatrixForm.zero(size, (0, 1))] + b,
                         _random_coeffs(cfg, rng, size, (1, 0), 1) + a)


def _strict_upper(rng, size):
    rows = [[tf.random_fourier_scalar(rng, 1, 2) if c > r else tf.FS_ZERO
             for c in range(size)] for r in range(size)]
    return tf.MatrixForm((0, 0), rows)


def suite_gauge_covariance(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        size = _lift_rank(cfg, i)
        # Only orders <= depth of the moved lift are checked, and they depend
        # only on orders <= depth of the lift, so the lift is drawn to there.
        depth = min(2, cfg.order)
        lift = _random_lift(cfg, rng, size, depth)
        gs = (_strict_upper(rng, size), _strict_upper(rng, size))  # g_1, g_2
        moved = ll.gauge_transform_lift(lift, gs)
        want = ll.integrability_residuals(lift)
        got = ll.integrability_residuals(moved)
        # got = g^-1 want g, checked as g got = want g order by order; the
        # g_0 = 1 term starts each sum.
        agree = all(
            tf.wedge_sum(got[k], [(1, g, got[k - j]) for j, g in enumerate(gs[:k], 1)])
            == tf.wedge_sum(want[k], [(1, want[k - j], g) for j, g in enumerate(gs[:k], 1)])
            for k in range(depth + 1))
        out.append(check_true(f"case-{i:04d}", agree,
                              "transformed residuals are the conjugated ones",
                              "series conjugation"))
    return out


def _trace_free(m):
    """The scalar matrix m (rows) minus its trace share on the diagonal."""
    share = reduce(add, (m[r][r] for r in range(len(m)))) / QQi(len(m))
    return tuple(tuple(x - share if r == c else x for c, x in enumerate(row))
                 for r, row in enumerate(m))


def _random_trace_free(rng, size):
    """A random trace-free size x size scalar matrix, drawn row by row."""
    return _trace_free([[random_qqi(rng) for _ in range(size)] for _ in range(size)])


def _matmul(a, b):
    """Product of two scalar matrices given as rows; each entry sums from its
    first product."""
    cols = tuple(zip(*b))
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in cols)
                 for row in a)


def _trace_adjusted_poly(rng, c_matrix):
    """A trace-free polynomial in the constant matrix (degree <= 2)."""
    c1, c2 = random_qqi(rng), random_qqi(rng)
    adjusted = _trace_free(_matmul(c_matrix, c_matrix))
    return tuple(tuple(x * c1 + y * c2 for x, y in zip(r, s))
                 for r, s in zip(c_matrix, adjusted))


def _commuting_pair(cls, cfg, rng, c_matrix, phi0):
    """An order-1 lift or tangent (omega-hat-degeneracy reads orders 0 and 1
    only): a_0 = phi0 dz, b_1 = p(C) f dzbar, drawing the series f first and
    then the trace-free polynomial p in the constant matrix C."""
    size = len(c_matrix)
    f = tf.random_fourier_scalar(rng, cfg.mode_bound, 2)
    psi1 = tf.MatrixForm.from_scalar_matrix(
        _trace_adjusted_poly(rng, c_matrix), (0, 1)) * f
    return cls((tf.MatrixForm.zero(size, (0, 1)), psi1),
               (tf.MatrixForm.from_scalar_matrix(phi0, (1, 0)),
                tf.MatrixForm.zero(size, (1, 0))))


def suite_omega_hat_degeneracy(cfg, rng, entries):
    # Gauge directions are drawn as xi_0 and xi_1: omega_hat and
    # d_energy_of_lift read the gauge tangent at orders 0 and 1 only, and
    # gauge_tangent takes the later xi_k as zero.
    out = []
    for i in range(cfg.cases):
        size = _lift_rank(cfg, i)
        c_matrix = _random_trace_free(rng, size)
        lift = _commuting_pair(ll.LambdaLift, cfg, rng, c_matrix, c_matrix)
        res = ll.integrability_residuals(lift)
        out.append(check_true(f"integrable-{i:04d}", all(r.is_zero for r in res),
                              "commuting data is integrable to order 1",
                              "construction"))
        gauge_dir = ll.gauge_tangent(lift, _random_coeffs(cfg, rng, size, (0, 0), 2))
        flat_dir = _commuting_pair(ll.TangentSeries, cfg, rng, c_matrix,
                                   _trace_adjusted_poly(rng, c_matrix))
        lin = ll.linearized_residuals(lift, flat_dir)
        out.append(check_true(f"tangent-flat-{i:04d}", all(r.is_zero for r in lin),
                              "commutant tangent solves the linearized equations",
                              "construction"))
        out.append(check(f"gauge-vs-flat-{i:04d}", QQi(0),
                         ll.omega_hat(lift, gauge_dir, flat_dir), "gauge degeneracy"))
        other = ll.gauge_tangent(lift, _random_coeffs(cfg, rng, size, (0, 0), 2))
        out.append(check(f"gauge-vs-gauge-{i:04d}", QQi(0),
                         ll.omega_hat(lift, gauge_dir, other), "gauge degeneracy"))
    # The lift is integrable to order 1, so the linearization along a gauge
    # direction xi is [R, xi] = 0: three draws, whatever cfg.cases is.
    for k in range(3):
        size = _lift_rank(cfg, k)
        c_matrix = _random_trace_free(rng, size)
        lift = _commuting_pair(ll.LambdaLift, cfg, rng, c_matrix, c_matrix)
        gauge_dir = ll.gauge_tangent(lift, _random_coeffs(cfg, rng, size, (0, 0), 2))
        lin = ll.linearized_residuals(lift, gauge_dir)
        out.append(check_true(f"tangent-gauge-{k}", all(r.is_zero for r in lin),
                              "gauge tangent solves the linearized equations",
                              "gauge action"))
    return out


def suite_energy_gauge_invariance(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        size = _lift_rank(cfg, i)
        # The first variation reads orders <= 1 of the lift, so it is drawn
        # to order 1: b_1 and a_1, then a constant a_0.
        b1 = _random_coeffs(cfg, rng, size, (0, 1), 1)
        a1 = _random_coeffs(cfg, rng, size, (1, 0), 1)
        a0 = tf.MatrixForm.from_scalar_matrix(_random_trace_free(rng, size), (1, 0))
        lift = ll.LambdaLift([tf.MatrixForm.zero(size, (0, 1))] + b1, [a0] + a1)
        tangent = ll.gauge_tangent(lift, _random_coeffs(cfg, rng, size, (0, 0), 2))
        out.append(check(f"case-{i:04d}", QQi(0), ll.d_energy_of_lift(lift, tangent),
                         "first variation along gauge directions"))
    return out


def _random_small_vhs(rng):
    while True:
        v = vhs.random_vhs(rng, lmax=3, rmax=2, dmax=6)
        if v.l >= 2 and v.n <= 5:
            return v


def suite_second_variation_weights(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        v = _random_small_vhs(rng)
        higgs = ll.random_pure_grade_form(rng, v, -1, (1, 0), constant=True)
        beta = {1: ll.random_pure_grade_form(rng, v, 1, (0, 1), cfg.mode_bound)}
        lift = ll.c_star_fixed_lift(v, higgs, beta=beta)
        xi = ll.xi_matrix_form(v) * XI_SCALAR_PHIPSI
        span = range(-(v.l - 1), v.l)
        g0, g1, h0 = rng.choice(span), rng.choice(span), rng.choice(span)
        phi_0 = ll.random_pure_grade_form(rng, v, g0, (1, 0), cfg.mode_bound)
        phi_1 = ll.random_pure_grade_form(rng, v, g1, (1, 0), cfg.mode_bound)
        psi_0 = ll.random_pure_grade_form(rng, v, h0, (0, 1), cfg.mode_bound)
        # tr(phi_0 psi_1) vanishes unless the grades sum to zero; the
        # conj_transpose(phi_0) part adds the squared norm of phi_0 to it.
        psi_1 = tf.conj_transpose(phi_0) + ll.random_pure_grade_form(
            rng, v, -g0, (0, 1), cfg.mode_bound)
        t = ll.TangentSeries((psi_0, psi_1), (phi_0, phi_1))
        got = ll.second_variation(lift, t, xi)
        want = QQi(2) * ll.omega_hat(lift, t, ll.circle_field(t))
        out.append(check(f"case-{i:04d}", want, got, "two-form against the circle field"))
        # The energy is bilinear in (Phi, Psi_1), so dE(L, L) = 2 E(L).
        out.append(check(f"euler-{i:04d}", QQi(2) * ll.energy_of_lift(lift),
                         ll.d_energy_of_lift(lift, lift), "energy along the lift"))
    # One fixed lift with constant data in every grade (only the grades
    # enter), drawn on three rank-1 blocks, so grades -2..2, whatever
    # cfg.cases is.  In c_star_fixed_lift each t^k coefficient has one grade,
    # k for b_k and k - 1 for a_k (Phi has grade -1, phi_j sits at t^(j+1)).
    # xi_0 is constant and brackets grade g as [f, xi_0] = -g f
    # (Phi = [Phi, xi_0]), so the gauge tangent of (xi_0, 0, ...) maps b_k to
    # -k b_k and a_k to (1 - k) a_k: the circle field is i times it, the
    # circle action undone by a gauge motion.  That is G(i xi_0), as G is
    # linear; G takes xi_k = 0 for k >= 1.
    v = vhs.VhsBlockData((1, 1, 1), (2, 0, -2))
    higgs = ll.random_pure_grade_form(rng, v, -1, (1, 0), constant=True)
    beta = {j: ll.random_pure_grade_form(rng, v, j, (0, 1), constant=True)
            for j in range(1, v.l)}
    phi = {j: ll.random_pure_grade_form(rng, v, j, (1, 0), constant=True)
           for j in range(v.l)}
    lift = ll.c_star_fixed_lift(v, higgs, beta=beta, phi=phi)
    xi0 = ll.xi_matrix_form(v) * (XI_SCALAR_PHIPSI * QQi(0, 1))
    field, gauge = ll.circle_field(lift), ll.gauge_tangent(lift, [xi0])
    out.append(check_true("fixed-circle", field == gauge,
                          "the circle field is i times the gauge tangent of xi_0 "
                          "at every order", "circle-fixed lift"))
    # With no beta and no phi, Psi_1 = conj_transpose(Phi); for Phi = H dz
    # constant, tr(Phi ^ Psi_1) = tr(H H*) dz ^ dzbar = sum |h_ij|^2 dz ^ dzbar,
    # whose integral is that sum, so E = ENERGY_LIFT_COEFF times it.
    norm = reduce(add, (h * h.conjugate() for row in higgs.entries
                        for h in map(tf.FourierScalar.constant_mode, row)))
    out.append(check("fixed-energy", ENERGY_LIFT_COEFF * norm,
                     ll.energy_of_lift(ll.c_star_fixed_lift(v, higgs)),
                     "circle-fixed lift"))
    return out


def suite_dh_involutions(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        size = _lift_rank(cfg, i)
        lift = _random_lift(cfg, rng, size, cfg.order)  # the glue walks every order
        lc = ll.lift_to_laurent(lift)
        out.append(check_true(f"glue-{i:04d}",
                              ll.deligne_glue(ll.deligne_glue(lc)) == lc,
                              "regluing twice is the identity", "exponent map"))
        p = ll.DHPoint(*_random_coeffs(cfg, rng, size, (0, 1), 1),
                       *_random_coeffs(cfg, rng, size, (1, 0), 1), random_nonzero_qqi(rng))
        out.append(check_true(f"square-{i:04d}",
                              ll.real_involution_dh(ll.real_involution_dh(p)) == p,
                              "involution squares to the identity",
                              "antiholomorphic involution"))
        zeta = random_nonzero_qqi(rng)
        lhs = ll.real_involution_dh(ll.c_star_on_point(zeta, p))
        rhs = ll.c_star_on_point(QQi(1) / zeta.conjugate(), ll.real_involution_dh(p))
        out.append(check_true(f"equivariance-{i:04d}", lhs == rhs,
                              "involution intertwines scaling with reciprocal "
                              "conjugate scaling", "antiholomorphic involution"))
    # One order-2 lift reglued by hand: the parts swap, t^j goes to t^(1-j).
    lift = _random_lift(cfg, rng, 2, 2)
    a, b = lift.a, lift.b
    want = ll.LaurentConnection({0: "del"}, {1: a[0], 0: a[1], -1: a[2]},
                                {1: "dbar"}, {0: b[1], -1: b[2]})
    out.append(check_true("glue-exponents",
                          ll.deligne_glue(ll.lift_to_laurent(lift)) == want,
                          "regluing maps the exponent j to 1 - j", "exponent map"))
    return out


def suite_beta1_independence(cfg, rng, entries):
    out = []
    for i in range(cfg.cases):
        v = _random_small_vhs(rng)
        higgs = ll.random_pure_grade_form(rng, v, -1, (1, 0), constant=True)
        base = ll.energy_of_lift(ll.c_star_fixed_lift(v, higgs))
        gamma = ll.random_pure_grade_form(rng, v, 1, (0, 0), cfg.mode_bound)
        m, n = draw(rng, 1, cfg.mode_bound or 1), draw(rng, -cfg.mode_bound, cfg.mode_bound)
        charpart = ll.random_pure_grade_form(rng, v, 1, (0, 1), constant=True)
        beta1 = tf.dbar(gamma) + charpart * tf.FourierScalar.char(m, n, random_qqi(rng))
        got = ll.energy_of_lift(ll.c_star_fixed_lift(v, higgs, beta={1: beta1}))
        out.append(check(f"energy-{i:04d}", base, got,
                         "exact and mean-free slice data"))
        pairing = tf.pair_trace(higgs, beta1)
        out.append(check(f"pairing-{i:04d}", QQi(0), pairing,
                         "exact and mean-free slice data"))
    v2 = vhs.VhsBlockData((1, 1), (1, -1))
    q = ll.random_pure_grade_form(rng, v2, 1, (1, 0), constant=True)
    higgs2 = ll.random_pure_grade_form(rng, v2, -1, (1, 0), constant=True)
    residual = ll.bb_slice_residual(v2, higgs2, beta={}, phi={1: q})
    out.append(check_true("grafting-residual", residual.is_zero,
                          "constant quadratic-differential slot solves the "
                          "first slice equation", "grafting family"))
    # The bracket term by hand, on v2 with constant Phi = h E21 dz,
    # phi_0 = p diag(1, -1) dz and beta_1 = b E12 dzbar.  For two 1-forms
    # [A ^ B] = (AB - BA) dz ^ dzbar; with A = Phi + phi_0 = ((p, 0), (h, -p))
    # and B = ((0, b), (0, 0)) that is ((-hb, 2pb), (0, hb)).
    h, b, p, zero = QQi(2, 1), QQi(Fraction(-1, 3)), QQi(5), QQi(0)
    residual = ll.bb_slice_residual(
        v2, tf.MatrixForm.from_scalar_matrix(((zero, zero), (h, zero)), (1, 0)),
        beta={1: tf.MatrixForm.from_scalar_matrix(((zero, b), (zero, zero)), (0, 1))},
        phi={0: tf.MatrixForm.from_scalar_matrix(((p, zero), (zero, -p)), (1, 0))})
    want = tf.MatrixForm.from_scalar_matrix(((-h * b, QQi(2) * p * b), (zero, h * b)),
                                            (1, 1))
    out.append(check("bracket-residual", want, residual, "hand value"))
    return out


SUITES = {
    "sl2-jacobi": suite_sl2_jacobi,
    "killing-form": suite_killing_form,
    "wronskian-pairing": suite_wronskian_pairing,
    "chart-involution": suite_chart_involution,
    "omega0-invariance": suite_omega0_invariance,
    "energy-invariance": suite_energy_invariance,
    "tau-equivariance": suite_tau_equivariance,
    "moment-map": suite_moment_map,
    "evaluation-fiber": suite_evaluation_fiber,
    "omega0-reality": suite_omega0_reality,
    "energy-reality": suite_energy_reality,
    "vhs-energy": suite_vhs_energy,
    "hyperhol-degree": suite_hyperhol_degree,
    "det-exponent": suite_det_exponent,
    "grade-bracket": suite_grade_bracket,
    "xi-weights": suite_xi_weights,
    "stokes": suite_stokes,
    "d-squared": suite_d_squared,
    "trace-cyclicity": suite_trace_cyclicity,
    "backend-exactness": suite_backend_exactness,
    "gauge-covariance": suite_gauge_covariance,
    "omega-hat-degeneracy": suite_omega_hat_degeneracy,
    "energy-gauge-invariance": suite_energy_gauge_invariance,
    "second-variation-weights": suite_second_variation_weights,
    "dh-involutions": suite_dh_involutions,
    "beta1-independence": suite_beta1_independence,
}


def run_suites(config):
    """Execute the named suites; deterministic for a fixed config.

    The dataset is read and checked once, before any suite runs, and every
    suite gets its entries.  So every input error is raised before a suite
    runs, and an exception raised inside a suite is a defect in the code it
    checks: it becomes the failing record <suite>/error.  Every record is
    filed here under the suite that returned it, and the records come back
    sorted by (suite, case), the order of every report.
    """
    unknown = [name for name in config.suites if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite names: {reprlib.repr(unknown)}")
    entries = load_vhs_dataset(*config.datasets)
    for e in entries:
        if _uniformizing_genus(e) is not None and not e.pair:
            raise ValueError(f"dataset entry {reprlib.repr(e.label)} names no pair")
    records = []
    for name in config.suites:
        rng = _rng_for(config.seed, name)
        try:
            found = SUITES[name](config, rng, entries)
        except Exception as err:
            tb = err.__traceback__
            while tb.tb_next:  # the frame that raised
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            found = [check("error", "the suite runs to completion",
                           f"{type(err).__name__}: {reprlib.repr(str(err))}",
                           f"raised in {code.co_name} at "
                           f"{os.path.basename(code.co_filename)}:{tb.tb_lineno}")]
        for row in found:  # suites leave the suite empty; it is filed here
            row["suite"] = name
        records += found
    records.sort(key=lambda row: (row["suite"], row["case"]))
    return records
