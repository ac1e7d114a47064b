"""Exact block calculus of circle-fixed Higgs bundles (variations of Hodge structure).

A dataset records the ranks and degrees of the graded summands E_1, ..., E_l
of a fixed bundle E with trivial determinant.  Everything here is integer or
rational bookkeeping: energies, the hyperholomorphic degree pairing, the
grading element xi, and the exponents of the determinant-one gauge family
g(t) = t^m diag(t^(1-l), ..., t^0).

Blocks are 1-indexed.  A block labeled (i, j) maps the i-th summand to the
j-th (so it is an r_j x r_i matrix), and its grading weight is k = i - j.
Since m is only a rational, g(t) itself may be multivalued; it is never
materialized as a matrix, only its exponent vector is exposed.  Conjugation
g^-1 (.) g scales the block (i, j) by t^(i - j), the difference of the i-th
and j-th exponents.

The degree-weighted energy sum is implemented including the k = 1 term,
which vanishes identically, so the sum may be read as starting at k = 1
or k = 2 interchangeably.  The weights of xi and the exponent of det g(t)
are computed on ints, as numerators over n, and each value is one Fraction.

Every dataset, drawn or read, goes through the checked ``VhsBlockData(...)``.
:func:`random_vhs` keeps it too: its zero-sum check is what makes ``verify``
fail when the last drawn degree is wrong, since no record reads the sum.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from operator import mul

from .records import Record
from .scalars import QQi, draw


#: The text of a degree: a decimal integer p or fraction p/q.  Python's
#: Fraction also reads exponents, so "1e999999999" would build a
#: billion-digit integer.
_DEGREE_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _as_degree(x):
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if ((isinstance(x, str) and _DEGREE_TEXT.fullmatch(x))
            or (isinstance(x, (list, tuple)) and len(x) == 2
                and bool not in map(type, x))):
        try:
            f = Fraction(x) if isinstance(x, str) else Fraction(*x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        else:
            return int(f) if f.denominator == 1 else f
    raise ValueError(f"not a degree value: {reprlib.repr(x)}")


class VhsBlockData(Record):
    """Ranks and degrees of the graded pieces of a circle-fixed Higgs bundle.

    ``pair`` is the label of an associated infinity-side dataset, if any.
    """

    __slots__ = _fields = ("ranks", "degrees", "label", "pair")

    def __init__(self, ranks, degrees, label: str = "", pair: str = ""):
        ranks = tuple(ranks)
        degrees = tuple(_as_degree(d) for d in degrees)
        if len(ranks) < 1:
            raise ValueError("need at least one block")
        if any(not isinstance(r, int) or isinstance(r, bool) or r < 1 for r in ranks):
            raise ValueError("ranks must be positive integers")
        if len(degrees) != len(ranks):
            raise ValueError("ranks and degrees must have equal length")
        if sum(degrees) != 0:
            raise ValueError("degrees must sum to zero (trivial determinant)")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "pair", pair)

    @property
    def l(self) -> int:
        return len(self.ranks)

    @property
    def n(self) -> int:
        return sum(self.ranks)

    def to_json(self) -> dict:
        doc = {"ranks": list(self.ranks),
               "degrees": [d if isinstance(d, int) else str(d) for d in self.degrees],
               "label": self.label}
        if self.pair:
            doc["pair"] = self.pair
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "VhsBlockData":
        """An entry of a dataset document; a malformed field raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("entry must be an object")
        doc = {"label": "", "pair": "", **doc}
        for name, kind in (("ranks", list), ("degrees", list), ("label", str),
                           ("pair", str)):
            if not isinstance(doc.get(name), kind):
                raise ValueError(f"field {name!r} must be a {kind.__name__}")
        return cls(doc["ranks"], doc["degrees"], doc["label"], doc["pair"])


def energy_closed(v: VhsBlockData):
    """sum over k of (k - 1) * degree_k (the k = 1 term vanishes)."""
    return sum((k - 1) * dk for k, dk in enumerate(v.degrees, start=1))


def energy_recursive(v: VhsBlockData):
    """Same energy via the tail recursion E_l = d_l, E_k = d_k + E_(k+1)."""
    tails = [0] * (v.l + 1)
    for k in range(v.l, 0, -1):
        tails[k] = v.degrees[k - 1] + (tails[k + 1] if k < v.l else 0)
    return sum(tails[2:v.l + 1])


def hyperhol_degree(v0: VhsBlockData, vinf: VhsBlockData):
    """Degree of the hyperholomorphic line bundle along a fixed section pair."""
    if v0.n != vinf.n:
        raise ValueError(f"the 0- and infinity-side data {reprlib.repr(v0.label)} "
                         f"and {reprlib.repr(vinf.label)} must share the same rank")
    return energy_closed(v0) + energy_closed(vinf)


def _weight_numerators(v: VhsBlockData) -> list:
    """The weights m + j - l times n, as ints: with S = sum of (l - j) * r_j,
    m = S / n, so the j-th is S + (j - l) * n."""
    l, n = v.l, v.n
    s = sum((l - j) * r for j, r in enumerate(v.ranks, start=1))
    return [s + (j - l) * n for j in range(1, l + 1)]


def xi_weights(v: VhsBlockData) -> tuple:
    """Weights of the diagonal grading element xi: m + j - l on the j-th block.

    They are also the exponents of t on the blocks of g(t).
    """
    n = v.n
    return tuple(Fraction(k, n) for k in _weight_numerators(v))


def det_exponent(v: VhsBlockData) -> Fraction:
    """Exponent of t in det g(t): the rank-weighted sum of the exponents, as
    one Fraction over n."""
    return Fraction(sum(map(mul, v.ranks, _weight_numerators(v))), v.n)


def grades(v: VhsBlockData) -> list:
    """Rows of the grading weight i - j of the block (i, j) holding each entry
    of an n x n matrix."""
    block = [i for i, rank in enumerate(v.ranks) for _ in range(rank)]
    return [[bc - br for bc in block] for br in block]


def xi_matrix(v: VhsBlockData):
    """The grading element as an exact diagonal n x n matrix (a list of rows).

    Its diagonal repeats each block's weight over the block's rank, so for
    every entry (r, c) the weight difference xi_cc - xi_rr is the grade of
    the entry, and [M, xi] = M xi - xi M scales each grade-k entry of M by k.
    """
    zero = QQi(0)
    diag = [QQi(w) for w, r in zip(xi_weights(v), v.ranks) for _ in range(r)]
    return [[w if r == c else zero for c in range(v.n)] for r, w in enumerate(diag)]


def grafting_data(g: int) -> VhsBlockData:
    """The rank-2 uniformizing-type dataset underlying grafting sections.

    The grafting family has vanishing (0,1) slice datum, so its energy
    coincides with the energy of the underlying twistor line.
    """
    if g < 2:
        raise ValueError("grafting data needs genus g >= 2")
    return VhsBlockData((1, 1), (g - 1, 1 - g), label=f"grafting-g{g}")


def random_vhs(rng, lmax: int = 6, rmax: int = 3, dmax: int = 20) -> VhsBlockData:
    """Deterministic random valid dataset (degrees summing to zero)."""
    l = draw(rng, 1, lmax)
    ranks = tuple(draw(rng, 1, rmax) for _ in range(l))
    head = [draw(rng, -dmax, dmax) for _ in range(l - 1)]
    degrees = tuple(head + [-sum(head)])
    return VhsBlockData(ranks, degrees)
