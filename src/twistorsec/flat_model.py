"""The flat hyperkahler model and its twistor sections.

The model is H^d with quaternionic coordinates split into d Darboux pairs
(z, w).  Its twistor space is the total space of O(1) + O(1) over the
projective line, taken d times, with the fiberwise symplectic form
dv ^ dxi in the 0-chart trivialization.  A holomorphic section is then a
pair of degree-1 polynomials per quaternionic block,

    v(t) = a1 + a2*t,        xi(t) = b1 + b2*t,

so the section space is linear of dimension 4d and tangents have the same
quadruple shape as sections.

The rotating circle action lifts the base rotation t -> zeta*t by
(t, v, xi) -> (zeta*t, v, zeta*xi); the moment map and the per-block
energy coefficient are frozen in :mod:`twistorsec.constants` together with
the oracle results that fixed them.

At t = infinity all formulas use the explicit chart change (coefficient
reversal with the O(1) twist), never numerical limits.

The operations that return a section, and :func:`random_section`, build it
with :func:`_section`, which skips the shape checks of ``FlatSection(...)``:
each block they build is a quadruple, one per block of a valid input.  A
section from outside the library (a hand-built one, a dataset, a symbolic
test) goes through the checked ``FlatSection(...)``.
"""

from __future__ import annotations

from .constants import ENERGY_BLOCK_COEFF, MU_COEFF, OMEGA0_SPLIT_COEFF
from .projline import INFINITY
from .records import Record
from .scalars import HALF, I, QQi, random_qqi, scalar_to_json


class FlatPoint(Record):
    """A point of H^d: d Darboux pairs (z, w).  Also used for fiber vectors."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords):
        coords = tuple(map(tuple, coords))
        if len(coords) < 1:
            raise ValueError("need at least one quaternionic block")
        if set(map(len, coords)) != {2}:
            raise ValueError("coordinates are (z, w) pairs")
        object.__setattr__(self, "coords", coords)


class FlatSection(Record):
    """A twistor section: per block the quadruple (a1, a2, b1, b2).

    Tangent vectors to the (linear) section space have the same shape.
    """

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(map(tuple, blocks))
        if len(blocks) < 1:
            raise ValueError("need at least one quaternionic block")
        if set(map(len, blocks)) != {4}:
            raise ValueError("blocks are quadruples (a1, a2, b1, b2)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return len(self.blocks)

    def to_json(self) -> dict:
        return {"d": self.d,
                "blocks": [[scalar_to_json(c) for c in blk]
                           for blk in self.blocks]}


_set_blocks = FlatSection.blocks.__set__


def _section(blocks: tuple) -> FlatSection:
    """The section of a nonempty tuple of quadruples, without the checks of
    ``FlatSection(...)``: only for blocks that an operation built from a
    valid section, one quadruple per block of it."""
    s = object.__new__(FlatSection)
    _set_blocks(s, blocks)
    return s


def zero_tangent(d: int) -> FlatSection:
    return FlatSection(tuple((QQi(0),) * 4 for _ in range(d)))


def twistor_line(m: FlatPoint) -> FlatSection:
    """The constant section through m: per block (z, -conj(w), w, conj(z))."""
    return _section(tuple((z, -w.conjugate(), w, z.conjugate())
                          for z, w in m.coords))


def evaluate(s: FlatSection, t) -> FlatPoint:
    """Value of the section in the fiber over t; infinity-chart pair at t = infinity.

    On a tangent this is its value at t as a fiber vector.
    """
    if t is INFINITY:
        return FlatPoint(tuple((a2, b2) for _, a2, _, b2 in s.blocks))
    return FlatPoint(tuple((a1 + a2 * t, b1 + b2 * t)
                           for a1, a2, b1, b2 in s.blocks))


def real_involution(s: FlatSection) -> FlatSection:
    """The antiholomorphic involution covering the antipodal map.

    Per block (a1, a2, b1, b2) -> (conj b2, -conj b1, -conj a2, conj a1); its
    fixed sections are exactly the twistor lines.  The same formula is the
    differential acting on tangents (the map is conjugate-linear).
    """
    return _section(tuple(
        (b2.conjugate(), -b1.conjugate(), -a2.conjugate(), a1.conjugate())
        for a1, a2, b1, b2 in s.blocks))


def group_action(zeta, s: FlatSection) -> FlatSection:
    """(zeta.s)(t) = zeta.(s(zeta^-1 t)): per block (a1, a2/zeta, zeta*b1, b2)."""
    if not zeta:
        raise ValueError("the acting scalar must be nonzero")
    return _section(tuple((a1, a2 / zeta, zeta * b1, b2)
                          for a1, a2, b1, b2 in s.blocks))


def fundamental_field(s: FlatSection) -> FlatSection:
    """d/dtheta at theta=0 of the circle orbit: per block (0, -i*a2, i*b1, 0)."""
    return _section(tuple((QQi(0), -I * a2, I * b1, QQi(0))
                          for a1, a2, b1, b2 in s.blocks))


def moment_map(m: FlatPoint):
    """Fiber moment map of the rotation, sum of MU_COEFF * |w|^2 over blocks."""
    total = QQi(0)
    for _, w in m.coords:
        total = total + MU_COEFF * (w * w.conjugate())
    return total


def relative_symplectic(V: FlatPoint, W: FlatPoint):
    """Fiberwise Darboux pairing sum(dv ^ dxi) on two fiber vectors over one point."""
    total = QQi(0)
    for (v1, x1), (v2, x2) in zip(V.coords, W.coords):
        total = total + (v1 * x2 - v2 * x1)
    return total


def omega0_killing(s: FlatSection, V: FlatSection, W: FlatSection):
    """The symplectic form at the degenerate point t = 0 (Killing-pairing construction).

    Equals (i/2) * d/dt|_0 of the fiberwise pairing of V(t) and W(t); that
    t-derivative is the closed form coded below.
    """
    total = QQi(0)
    for (va1, va2, vb1, vb2), (wa1, wa2, wb1, wb2) in zip(V.blocks, W.blocks):
        total = total + (va1 * wb2 + va2 * wb1 - wa1 * vb2 - wa2 * vb1)
    return I * HALF * total


def vanishing_at_zero_part(V: FlatSection) -> FlatSection:
    """Component of V vanishing at t = 0 (the t * constant part)."""
    return _section(tuple((QQi(0), a2, QQi(0), b2)
                          for _, a2, _, b2 in V.blocks))


def vanishing_at_infinity_part(V: FlatSection) -> FlatSection:
    """Component of V vanishing at t = infinity (the constant part)."""
    return _section(tuple((a1, QQi(0), b1, QQi(0))
                          for a1, _, b1, _ in V.blocks))


def holomorphic_metric(s: FlatSection, V: FlatSection, W: FlatSection):
    """g(V, W): fiber Darboux pairing tensored with the Wronskian pairing.

    Expanding over the basis {1, t} of the degree-1 sections, only the mixed
    Wronskians survive (wr(1, t) = 1 = -wr(t, 1)), leaving per block
    omega(V_const, W_linear) - omega(V_linear, W_const).
    """
    total = QQi(0)
    for (va1, va2, vb1, vb2), (wa1, wa2, wb1, wb2) in zip(V.blocks, W.blocks):
        total = total + (va1 * wb2 - wa2 * vb1) - (va2 * wb1 - wa1 * vb2)
    return total


def omega0_splitting(s: FlatSection, V: FlatSection, W: FlatSection):
    """The same form as omega0_killing, built from the 0/infinity splitting.

    Decomposes both tangents into parts vanishing at 0 and at infinity and
    pairs them with the holomorphic metric; the prefactor is frozen in the
    constants file (requiring agreement with omega0_killing fixes it).
    """
    V0, Vinf = vanishing_at_zero_part(V), vanishing_at_infinity_part(V)
    W0, Winf = vanishing_at_zero_part(W), vanishing_at_infinity_part(W)
    return OMEGA0_SPLIT_COEFF * (holomorphic_metric(s, V0, Winf)
                                 - holomorphic_metric(s, Vinf, W0))


def evaluation_row(x):
    """Coefficient extraction row for evaluating (c1 + c2*t) at x."""
    if x is INFINITY:
        return (QQi(0), QQi(1))
    return (QQi(1), x)


def energy(s: FlatSection):
    """The holomorphic energy of a section.

    Computed from the definition: the rotation pairing of the deviation of
    the section from the twistor line through its value at t = 0, plus the
    fiber moment map there.  The conjugate terms cancel, leaving the closed
    form sum(ENERGY_BLOCK_COEFF * a2 * b1) pinned by the tests.
    """
    m = evaluate(s, QQi(0))
    total = moment_map(m)
    for (_, w), (_, a2, _, _), (_, line_a2, _, _) in zip(
            m.coords, s.blocks, twistor_line(m).blocks):
        iy_omega = -(I * w) * (a2 - line_a2)  # omega(Y, deviation) with Y = (0, i*w)
        total = total + (-HALF) * iy_omega
    return total


def d_energy(s: FlatSection, V: FlatSection):
    """Directional derivative of the energy at s along V.

    The energy is the polynomial sum(c * a2 * b1) in the section coordinates
    (its conjugate-dependent terms cancel identically), so the derivative is
    the bilinear expression below.
    """
    total = QQi(0)
    for (a1, a2, b1, b2), (va1, va2, vb1, vb2) in zip(s.blocks, V.blocks):
        total = total + ENERGY_BLOCK_COEFF * (va2 * b1 + a2 * vb1)
    return total


def energy_infinity(s: FlatSection):
    """The energy computed in the infinity chart.

    The chart change reverses coefficients per component and twists the
    relative symplectic form by the O(2) cocycle sign; the rotation acts on
    the tilde fiber with the opposite weight, on the v-side.  Repeating the
    definitional computation there gives per block -c * a2 * b1, the negative
    of the 0-chart energy (so the degree-type sum E + E_inf vanishes on the
    flat model).
    """
    total = QQi(0)
    for a1, a2, b1, b2 in s.blocks:
        ta1, tb2 = a2, b1  # tilde-chart constant v-coefficient and linear xi-coefficient
        dxi = tb2 + ta1.conjugate()  # xi-deviation from the tilde twistor line
        iy_omega = (I * ta1) * dxi  # rotation field (-i*v, 0) into the twisted form -dv^dxi
        total = total + (-HALF) * iy_omega + (-MU_COEFF) * (ta1 * ta1.conjugate())
    return total


def fixed_part(s: FlatSection) -> FlatSection:
    """Projection onto the circle-fixed locus a2 = b1 = 0: per block (a1, 0, 0, b2).

    The circle acts by (a1, a2/zeta, zeta*b1, b2), so these sections are the
    fixed ones; on a tangent this is the part the fundamental field kills.
    """
    return _section(tuple((a1, QQi(0), QQi(0), b2) for a1, _, _, b2 in s.blocks))


def twist(s: FlatSection):
    """t -> t^(-1).s(t^2) when it extends over 0 and infinity, else None.

    The reparametrized section has a genuine t^2 term in v unless a2 = 0 and
    a pole in xi unless b1 = 0; on that fixed locus the twist is the section
    itself.
    """
    return s if fixed_part(s) == s else None


def residue_form_phi(s: FlatSection, t, l, V: FlatSection):
    """The residue one-form: energy(s) * l plus the rotation pairing of V at t.

    l is the coefficient of the base direction (twisted d/dt slot); the
    vertical part pairs the rotation field of s against V fiberwise.  Only
    finite t is meaningful (the base slot is written in the 0-chart frame).
    """
    if t is INFINITY:
        raise ValueError("residue form expects a finite base point")
    X = fundamental_field(s)
    gamma = relative_symplectic(evaluate(X, t), evaluate(V, t))
    return energy(s) * l + gamma


def random_section(rng, d: int = 1) -> FlatSection:
    """Deterministic random section (or tangent) with d >= 1 blocks."""
    if d < 1:
        raise ValueError("need at least one quaternionic block")
    return _section(tuple(tuple(random_qqi(rng) for _ in range(4))
                          for _ in range(d)))
