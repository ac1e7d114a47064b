"""Truncated power-series families of lambda-connections over the torus backend.

A lift stores the coefficients of the pair of operators

    dbar(t) = dbar + sum_{k>=1} t^k b_k          (b_k of bidegree (0,1))
    D(t)    = t*del + sum_{k>=0} t^k a_k         (a_k of bidegree (1,0))

truncated at a fixed order N: the series pair (b, a) with b_0 = 0.  A tangent
is the same kind of pair without that condition, so one type holds both.
Every series input is a plain sequence of forms: the two sides of a pair, a
gauge direction (xi_0, xi_1, ...) and a gauge family (g_1, g_2, ...), whose
g_0 = 1 is implied.  One helper checks each term of each, and names it.
A gauge direction or family is a polynomial, zero past its last term.  Every
series operation is exact through the lift's order N, which it reads off the
lift.  The slot a_1 is kept (normalized germs have a_1 = 0) because
circle-fixed lifts built from graded slice data place their grade-0 datum there.

On top of the lifts this module provides the curvature-type integrability
expansion and its linearization, infinitesimal gauge directions, the energy
and its first variation, the two-form on tangent series, the circle field
on tangents, the second variation at circle-fixed lifts, the fixed-lift
constructor from graded block data, Laurent regluing to the infinity
coordinate, and the antiholomorphic involution at a fixed nonzero parameter.
"""

from __future__ import annotations

import reprlib

from .constants import ENERGY_LIFT_COEFF, OMEGA_HAT_COEFF
from .records import Record
from .scalars import QQi, random_qqi
from .torus_forms import (FS_ZERO, FourierScalar, MatrixForm, _list, bracket_terms,
                          conj_transpose, dbar, del_op, pair_trace,
                          random_fourier_scalar, trace, wedge_bracket, wedge_sum)
from .vhs import VhsBlockData, grades, xi_matrix


def _check_coeff(f: MatrixForm, rank, bidegree, what: str):
    """f is a MatrixForm of the bidegree, and of size rank unless rank is None."""
    if not isinstance(f, MatrixForm):
        raise TypeError(f"{what} must be a MatrixForm")
    if rank is not None and f.size != rank:
        raise ValueError(f"{what} has size {f.size}, expected {rank}")
    if f.bidegree != bidegree:
        raise ValueError(f"{what} has bidegree {f.bidegree}, expected {bidegree}")


def _check_series(fs, name: str, bidegree, rank=None, trace_free=False,
                  start=0) -> tuple:
    """fs as a tuple, each term name_k (k from start) checked in turn: a
    MatrixForm, of size rank (the first term's when rank is None), of the
    bidegree, and trace-free when trace_free is set."""
    fs = tuple(fs)
    for k, f in enumerate(fs, start):
        _check_coeff(f, rank, bidegree, f"{name}_{k}")
        rank = f.size
        if trace_free and trace(f):
            raise ValueError(f"{name}_{k} must be trace-free")
    return fs


class TangentSeries(Record):
    """A pair of truncated series: ``b`` holds the (0,1) forms b_0..b_N and
    ``a`` the (1,0) forms a_0..a_N, all of one size.  As a tangent to the
    space of lifts, b_k and a_k are the t^k coefficients of the variations of
    the dbar-part and of the D-part."""

    __slots__ = _fields = ("b", "a")
    _trace_free = False

    def __init__(self, b, a):
        b, a = tuple(b), tuple(a)
        if not b or len(a) != len(b):
            raise ValueError("need coefficients for orders 0..N on each side")
        _check_series(b, "b", (0, 1), trace_free=self._trace_free)
        _check_series(a, "a", (1, 0), b[0].size, self._trace_free)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    @property
    def rank(self) -> int:
        return self.b[0].size

    @property
    def order(self) -> int:
        return len(self.b) - 1


class LambdaLift(TangentSeries):
    """A truncated lambda-connection family: the series pair (b, a) of order
    N >= 1 with b_0 = 0 and every coefficient trace-free.

    ``a`` is (Phi, Phi_1, ..., Phi_N), the D-part with Phi_1 = 0 for
    normalized germs, and ``b`` is (0, Psi_1, ..., Psi_N), the dbar-part.  The
    rank is the size of the forms.  A lift is read as a tangent wherever one
    is expected.
    """

    __slots__ = ()
    _trace_free = True

    def __init__(self, b, a):
        super().__init__(b, a)
        if self.order < 1 or not self.b[0].is_zero:
            raise ValueError("a lift needs order N >= 1 and b_0 = 0")

    def to_json(self) -> dict:
        return {"rank": self.rank, "order": self.order,
                "phi0": self.a[0].to_json(),
                "psi": [f.to_json() for f in self.b[1:]],
                "phi": [f.to_json() for f in self.a[1:]]}

    @classmethod
    def from_json(cls, doc: dict) -> "LambdaLift":
        """The lift of a ``to_json`` document, whose ``rank`` and ``order`` must
        be the ints that match its forms."""
        fields = doc if type(doc) is dict else {}
        if type(fields.get("phi0")) is not dict:
            raise ValueError("field 'phi0' must be an object, got "
                             f"{reprlib.repr(fields.get('phi0'))}")
        psi, phi = (_list(fields.get(name), f"field {name!r}") for name in ("psi", "phi"))
        phi0 = MatrixForm.from_json(fields["phi0"])
        lift = cls((MatrixForm.zero(phi0.size, (0, 1)),)
                   + tuple(MatrixForm.from_json(f) for f in psi),
                   (phi0,) + tuple(MatrixForm.from_json(f) for f in phi))
        rank, order = fields.get("rank"), fields.get("order")
        if (type(rank), type(order), rank, order) != (int, int, lift.rank, lift.order):
            raise ValueError(f"declared rank {reprlib.repr(rank)} and order "
                             f"{reprlib.repr(order)} disagree with the forms "
                             f"(rank {lift.rank}, order {lift.order})")
        return lift


def _check_reach(order: int, lift: LambdaLift, *ts: TangentSeries):
    """The lift and each tangent in ts have the lift's rank and reach the order."""
    for t in (lift,) + ts:
        if t.rank != lift.rank or t.order < order:
            raise ValueError(f"series must have rank {lift.rank} and reach "
                             f"order {order}")


def _bracket_terms(xs, ys, k: int) -> list:
    """The :func:`wedge_sum` terms of sum_j [x_(k-j) ^ y_j], j = 0..k, the t^k
    coefficient of the graded bracket of the series xs and ys, where ys is
    zero past its last term."""
    return [term for j, y in enumerate(ys[:k + 1]) for term in bracket_terms(xs[k - j], y)]


def _d_series(xs, rank: int, n: int, start: int = 0) -> tuple:
    """The dbar and t*del series, orders 0..n, of the polynomial
    sum_k t^(start + k) xs[k] of (0,0) forms, zero past its last term."""
    zb, za = MatrixForm.zero(rank, (0, 1)), MatrixForm.zero(rank, (1, 0))
    db = [zb] * start + [dbar(x) for x in xs[:n + 1 - start]]
    da = [za] * (start + 1) + [del_op(x) for x in xs[:n - start]]
    return db + [zb] * (n + 1 - len(db)), da + [za] * (n + 1 - len(da))


def _curvature_terms(t: TangentSeries, pairs, n: int) -> list:
    """t^k coefficients, k = 0..n, of dbar(t.a) + t*del(t.b) plus the graded
    bracket [x ^ y] of every series pair (x, y) in pairs."""
    out = []
    for k in range(n + 1):
        r = dbar(t.a[k]) + del_op(t.b[k - 1]) if k else dbar(t.a[k])
        out.append(wedge_sum(r, [term for x, y in pairs
                                 for term in _bracket_terms(x, y, k)]))
    return out


def integrability_residuals(lift: LambdaLift):
    """t^k coefficients, k = 0..N, of the curvature of the lift of order N.

    The full curvature is dbar(a(t)) + t*del(b(t)) + [a(t) ^ b(t)]; the
    trivial background contributes nothing (del and dbar commute exactly on
    the mode model).  Order 0 is dbar(a_0); order 1 is
    dbar(a_1) + del(b_0) + [a_0 ^ b_1], with b_0 = 0.
    """
    return _curvature_terms(lift, [(lift.a, lift.b)], lift.order)


def linearized_residuals(lift: LambdaLift, t: TangentSeries):
    """Linearization of the curvature expansion at the lift, t^k coefficients
    k = 0..N of dbar(t.a) + t*del(t.b) + [lift.a ^ t.b] + [t.a ^ lift.b]; the
    tangent must have the lift's rank and reach its order N."""
    _check_reach(lift.order, lift, t)
    return _curvature_terms(t, [(lift.a, t.b), (t.a, lift.b)], lift.order)


def gauge_tangent(lift: LambdaLift, xis) -> TangentSeries:
    """The tangent series of the infinitesimal gauge action by
    xi(t) = sum t^k xi_k, given as the trace-free functions (xi_0, xi_1, ...),
    zero past the last one.

    b_k = dbar(xi_k) + sum_i [b_i, xi_(k-i)] and
    a_k = del(xi_(k-1)) + sum_i [a_i, xi_(k-i)], with the lift's b and a,
    through the lift's order N.
    """
    xs = _check_series(xis, "xi", (0, 0), lift.rank, trace_free=True)
    db, da = _d_series(xs, lift.rank, lift.order)
    return TangentSeries(
        [wedge_sum(r, _bracket_terms(lift.b, xs, k)) for k, r in enumerate(db)],
        [wedge_sum(r, _bracket_terms(lift.a, xs, k)) for k, r in enumerate(da)])


def energy_of_lift(lift: LambdaLift):
    """The energy pairing of the lowest-order coefficients: c * integral tr(Phi ^ Psi_1)."""
    return ENERGY_LIFT_COEFF * pair_trace(lift.a[0], lift.b[1])


def d_energy_of_lift(lift: LambdaLift, t: TangentSeries):
    """First variation of the energy along a tangent series."""
    _check_reach(1, lift, t)
    return ENERGY_LIFT_COEFF * (pair_trace(t.a[0], lift.b[1])
                                + pair_trace(lift.a[0], t.b[1]))


def omega_hat(lift: LambdaLift, t1: TangentSeries, t2: TangentSeries):
    """The two-form on tangent series at the lift.

    The four-term integrand pairs the order-0 and order-1 coefficients of the
    two tangents; the global prefactor is the frozen convention constant.
    """
    _check_reach(1, lift, t1, t2)
    value = (-pair_trace(t1.a[0], t2.b[1])
             + pair_trace(t2.a[0], t1.b[1])
             - pair_trace(t1.a[1], t2.b[0])
             + pair_trace(t2.a[1], t1.b[0]))
    return OMEGA_HAT_COEFF * value


def circle_field(t: TangentSeries) -> TangentSeries:
    """The circle action t -> zeta t on a series pair (a tangent, or a lift),
    differentiated at zeta = 1: b_k -> -i k b_k and a_k -> i (1 - k) a_k."""
    return TangentSeries(tuple(f * QQi(0, -k) for k, f in enumerate(t.b)),
                         tuple(f * QQi(0, 1 - k) for k, f in enumerate(t.a)))


def second_variation(lift: LambdaLift, t: TangentSeries, xi: MatrixForm):
    """Second variation of the energy at a circle-fixed lift, the Hessian of
    :func:`energy_of_lift`: 2c * integral tr(a_0 ^ b_1) of the tangent.

    Requires the fixed-point relations for the supplied grading parameter xi;
    each is checked and a violation is reported by name.
    """
    _check_coeff(xi, lift.rank, (0, 0), "xi")
    _check_reach(1, lift, t)
    phi, psi1 = lift.a[0], lift.b[1]
    checks = (
        ("dbar(xi) = 0", dbar(xi).is_zero),
        ("Phi = [Phi, xi]", phi == wedge_bracket(phi, xi)),
        ("-Psi_1 = [Psi_1, xi]", -psi1 == wedge_bracket(psi1, xi)),
        ("del(xi) = 0", del_op(xi).is_zero),
    )
    for name, ok in checks:
        if not ok:
            raise ValueError(f"fixed-point relation violated: {name}")
    return QQi(2) * ENERGY_LIFT_COEFF * pair_trace(t.a[0], t.b[1])


# -- circle-fixed lifts from graded block data --------------------------------


def has_pure_grade(f: MatrixForm, v: VhsBlockData, k: int) -> bool:
    """True when every entry outside the grade-k block positions vanishes."""
    if f.size != v.n:
        return False
    return not any(e for row, grade_row in zip(f.entries, grades(v))
                   for e, grade in zip(row, grade_row) if grade != k)


def xi_matrix_form(v: VhsBlockData) -> MatrixForm:
    """The diagonal grading element as a constant (0,0) matrix form."""
    return MatrixForm.from_scalar_matrix(xi_matrix(v), (0, 0))


def _checked_slice_data(v: VhsBlockData, higgs: MatrixForm, beta, phi):
    """The slice data (beta, phi) as dicts, after checking every form: the
    higgs field is a pure grade -1 (1,0) form, beta_j a pure grade-j (0,1)
    form with 1 <= j < l, phi_j a pure grade-j (1,0) form with 0 <= j < l
    (grades past l - 1 hold no blocks)."""
    beta, phi = dict(beta or {}), dict(phi or {})
    _check_coeff(higgs, v.n, (1, 0), "higgs field")
    if not has_pure_grade(higgs, v, -1):
        raise ValueError("higgs field must be pure grade -1")
    for name, data, bidegree, low in (("beta", beta, (0, 1), 1),
                                      ("phi", phi, (1, 0), 0)):
        for j, f in data.items():
            if not low <= j < v.l:
                raise ValueError(f"{name}_{j}: {name} data live in grades "
                                 f"{low} to {v.l - 1}, not {j}")
            _check_coeff(f, v.n, bidegree, f"{name}_{j}")
            if not has_pure_grade(f, v, j):
                raise ValueError(f"{name}_{j} must be pure grade {j}")
    return beta, phi


def c_star_fixed_lift(v: VhsBlockData, higgs: MatrixForm, beta=None,
                      phi=None) -> LambdaLift:
    """Assemble the circle-fixed lift of graded slice data.

    higgs is the pure grade-(-1) field; beta maps grade j >= 1 to a (0,1)
    form of that grade; phi maps grade j >= 0 to a (1,0) form of that grade
    (entering the D-part one t-power higher, so its grade-0 member occupies
    the t^1 slot).  The dbar-part then has t-degree at most l and the D-part
    at most l + 1, so the lift has order l + 1, which keeps every datum.
    """
    beta, phi = _checked_slice_data(v, higgs, beta, phi)
    n = v.l + 1
    b = [MatrixForm.zero(v.n, (0, 1)) for _ in range(n + 1)]
    a = [higgs] + [MatrixForm.zero(v.n, (1, 0)) for _ in range(n)]
    b[1] = conj_transpose(higgs)
    for j, f in beta.items():
        b[j] = b[j] + f
    for j, f in phi.items():
        a[j + 1] = a[j + 1] + f  # grade-j datum sits in the t^(j+1) slot
    return LambdaLift(b, a)


def bb_slice_residual(v: VhsBlockData, higgs: MatrixForm, beta=None, phi=None):
    """The first affine-slice residual form (not required to vanish here),
    dbar(phi_total) + [(Phi + phi_total) ^ beta_total].  Used as a diagnostic
    and as the constraint generator for exactly solvable test data.
    """
    beta, phi = _checked_slice_data(v, higgs, beta, phi)
    beta_total = sum((f for _, f in sorted(beta.items())), MatrixForm.zero(v.n, (0, 1)))
    phi_total = sum((f for _, f in sorted(phi.items())), MatrixForm.zero(v.n, (1, 0)))
    return wedge_sum(dbar(phi_total), bracket_terms(higgs + phi_total, beta_total))


def random_pure_grade_form(rng, v: VhsBlockData, k: int, bidegree,
                           mode_bound: int = 2, constant: bool = False) -> MatrixForm:
    """Random matrix form supported on the grade-k blocks only."""
    ent = [[FS_ZERO] * v.n for _ in range(v.n)]
    for r, row in enumerate(grades(v)):  # row-major: block by block, by block row
        for c, grade in enumerate(row):
            if grade == k:
                ent[r][c] = (FourierScalar.const(random_qqi(rng)) if constant
                             else random_fourier_scalar(rng, mode_bound, 2))
    if k == 0:  # keep sl-valued: zero out the last diagonal entry's trace share
        ent[-1][-1] = -sum((ent[i][i] for i in range(v.n - 1)), FS_ZERO)
    return MatrixForm(bidegree, ent)


# -- gauge transformation of a whole lift -------------------------------------


def gauge_transform_lift(lift: LambdaLift, gs) -> LambdaLift:
    """Conjugate the lift by the polynomial gauge family g(t) = 1 + sum t^k g_k,
    given as (g_1, g_2, ...); the empty family is the identity.

    New dbar-part coefficients: (g^-1 B g + g^-1 dbar g)_k; new D-part:
    (g^-1 A g + g^-1 t del g)_k.
    """
    gs = _check_series(gs, "g", (0, 0), lift.rank, start=1)

    def conjugated(xs, dgs):
        # y = x g + dg, then z = g^-1 y as the solution of g z = y.  As
        # g_0 = 1, y_k = x_k + dg_k + sum_(i>=1) x_(k-i) g_i and
        # z_k = y_k - sum_(i>=1) g_i z_(k-i); both sums go into one wedge_sum.
        zs = []
        for k, dg in enumerate(dgs):
            zs.append(wedge_sum(xs[k] + dg,
                                [(1, xs[k - i], g) for i, g in enumerate(gs[:k], 1)]
                                + [(-1, g, z) for g, z in zip(gs, zs[::-1])]))
        return zs

    db, da = _d_series(gs, lift.rank, lift.order, start=1)
    try:
        return LambdaLift(conjugated(lift.b, db), conjugated(lift.a, da))
    except ValueError as err:  # the result's trace is that of g^-1 dg, d log det g
        raise ValueError(f"gauge family g: det g(t) must be constant on the torus "
                         f"({err} in the transformed lift)") from None


# -- Laurent regluing and the antiholomorphic involution ----------------------


class LaurentConnection(Record):
    """Laurent data of a connection pair in one coordinate.

    Operator symbols ("dbar", "del") and form coefficients are kept per
    exponent, in four dicts that every caller passes.
    """

    __slots__ = _fields = ("dbar_ops", "dbar_forms", "d_ops", "d_forms")

    def __init__(self, dbar_ops, dbar_forms, d_ops, d_forms):
        object.__setattr__(self, "dbar_ops", dbar_ops)
        object.__setattr__(self, "dbar_forms", dbar_forms)
        object.__setattr__(self, "d_ops", d_ops)
        object.__setattr__(self, "d_forms", d_forms)


def lift_to_laurent(lift: LambdaLift) -> LaurentConnection:
    dbar_forms = {k: f for k, f in enumerate(lift.b) if not f.is_zero}
    d_forms = {k: f for k, f in enumerate(lift.a) if not f.is_zero}
    return LaurentConnection({0: "dbar"}, dbar_forms, {1: "del"}, d_forms)


def deligne_glue(lc: LaurentConnection) -> LaurentConnection:
    """Reglue to the reciprocal coordinate: parts swap and exponents map to 1 - j.

    Applying the operation twice gives back the original data.
    """
    remap = lambda d: {1 - j: x for j, x in d.items()}
    return LaurentConnection(remap(lc.d_ops), remap(lc.d_forms),
                             remap(lc.dbar_ops), remap(lc.dbar_forms))


class DHPoint(Record):
    """A connection pair at a fixed nonzero parameter: operators
    (dbar + B, lam*del + A), with B = ``dbar_coeff`` of bidegree (0,1),
    A = ``d_coeff`` of bidegree (1,0) and ``lam`` a ``QQi``."""

    __slots__ = _fields = ("dbar_coeff", "d_coeff", "lam")

    def __init__(self, dbar_coeff: MatrixForm, d_coeff: MatrixForm, lam):
        if type(lam) is not QQi:
            raise TypeError("lam must be a QQi")
        if not lam:
            raise ValueError("the parameter must be nonzero")
        _check_coeff(dbar_coeff, None, (0, 1), "dbar_coeff")
        _check_coeff(d_coeff, dbar_coeff.size, (1, 0), "d_coeff")
        object.__setattr__(self, "dbar_coeff", dbar_coeff)
        object.__setattr__(self, "d_coeff", d_coeff)
        object.__setattr__(self, "lam", lam)


def c_star_on_point(zeta, p: DHPoint) -> DHPoint:
    """The circle/scaling action: (B, A, lam) -> (B, zeta*A, zeta*lam)."""
    if not zeta:
        raise ValueError("the acting scalar must be nonzero")
    return DHPoint(p.dbar_coeff, p.d_coeff * zeta, zeta * p.lam)


def real_involution_chart(p: DHPoint):
    """The antiholomorphic involution written chart-to-chart.

    Returns the conjugate-chart triple (CT(B), -CT(A), -conj(lam)); the first
    slot is the holomorphic-structure coefficient for the conjugate complex
    structure.  Composing with the regluing yields the same-chart form below.
    """
    return (conj_transpose(p.dbar_coeff), -conj_transpose(p.d_coeff),
            -p.lam.conjugate())


def real_involution_dh(p: DHPoint) -> DHPoint:
    """The antiholomorphic involution in the same chart: the chart-to-chart
    triple reglued by (B, A, lam) -> (A/lam, B/lam, 1/lam).

    So (B, A, lam) -> (CT(A)/conj(lam), -CT(B)/conj(lam), -1/conj(lam)); an
    involution, equivariant against the scaling action with weight
    conj(zeta)^-1, covering the antipodal map on the parameter line.
    """
    b, a, lam = real_involution_chart(p)
    inv = QQi(1) / lam
    return DHPoint(a * inv, b * inv, inv)
