"""Exact algebra on the projective line.

Sections of O(k) are stored 0-chart-first as coefficient sequences
``(c_0, ..., c_k)`` for ``c_0 + c_1*t + ... + c_k*t^k``; the infinity-chart
representative is the reversed sequence, and passing to it twice is the
identity.  On top of that this module provides the point at infinity, the
Wronskian pairing on degree-1 sections, and the Lie algebra sl2 of global
vector fields ``a(t) d/dt`` in the basis

    e = d/dt,    h = -2 t d/dt,    f = -t^2 d/dt,

so an element ``A = A_e e + A_h h + A_f f`` has coefficient polynomial
``A(t) = A_e - 2 A_h t - A_f t^2``.  The Killing form is coded in closed
form; the tests check it against the trace of products of the adjoint
matrices in this basis.
"""

from __future__ import annotations

from .records import Record
from .scalars import QQi


class _Infinity:
    """The point at infinity of the projective line; INFINITY is its one instance."""

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


class PolySection(Record):
    """A section of O(k): polynomial of degree <= k in the 0-chart coordinate,
    given by its k + 1 coefficients; ``degree_bound`` is k."""

    __slots__ = _fields = ("degree_bound", "coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a section needs at least one coefficient")
        object.__setattr__(self, "degree_bound", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def chart_involution(self) -> "PolySection":
        """The infinity-chart representative (reversed coefficients)."""
        return PolySection(self.coeffs[::-1])


def wronskian(p: PolySection, q: PolySection):
    """psi1 * psi2' - psi1' * psi2 for degree-1 sections; a constant scalar."""
    if p.degree_bound != 1 or q.degree_bound != 1:
        raise ValueError("wronskian is defined for degree-bound-1 sections")
    return p.coeffs[0] * q.coeffs[1] - p.coeffs[1] * q.coeffs[0]


def wronskian_infinity_chart(p: PolySection, q: PolySection):
    """The Wronskian evaluated from infinity-chart data.

    The chart change carries the cocycle of the canonical-bundle twist, whose
    sign exactly cancels the coefficient reversal, so the value agrees with the
    0-chart computation.
    """
    return -wronskian(p.chart_involution(), q.chart_involution())


class Sl2Element(Record):
    """A global vector field A_e*e + A_h*h + A_f*f on the projective line."""

    __slots__ = _fields = ("a_e", "a_h", "a_f")

    def __init__(self, a_e: QQi, a_h: QQi, a_f: QQi):
        object.__setattr__(self, "a_e", a_e)
        object.__setattr__(self, "a_h", a_h)
        object.__setattr__(self, "a_f", a_f)

    def __add__(self, other):
        return Sl2Element(self.a_e + other.a_e, self.a_h + other.a_h,
                          self.a_f + other.a_f)


E = Sl2Element(QQi(1), QQi(0), QQi(0))
H = Sl2Element(QQi(0), QQi(1), QQi(0))
F = Sl2Element(QQi(0), QQi(0), QQi(1))


def sl2_bracket(A: Sl2Element, B: Sl2Element) -> Sl2Element:
    """Lie bracket of the vector fields, expressed in the (e, h, f) basis.

    Structure constants come from [a d/dt, b d/dt] = (a b' - a' b) d/dt; the
    test suite re-derives them symbolically.
    """
    c_e = QQi(-2) * (A.a_e * B.a_h - A.a_h * B.a_e)
    c_h = A.a_e * B.a_f - A.a_f * B.a_e
    c_f = QQi(2) * (A.a_f * B.a_h - A.a_h * B.a_f)
    return Sl2Element(c_e, c_h, c_f)


def killing(A: Sl2Element, B: Sl2Element):
    """kappa(A, B) = trace(ad_A o ad_B) = 8 A_h B_h + 4 (A_e B_f + A_f B_e)."""
    return QQi(8) * A.a_h * B.a_h + QQi(4) * (A.a_e * B.a_f + A.a_f * B.a_e)
