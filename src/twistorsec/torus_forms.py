"""Matrix-valued differential forms on a flat square torus, with exact calculus.

Functions are finite Fourier series: maps from integer mode pairs (m, n) to
scalar coefficients of the character chi_(m,n) = exp(2*pi*i*(m x + n y)).
With z = x + i y, the rescaled derivative operators

    D    = (1/pi) d/dz,      D chi_(m,n)    = (n + i m)   chi_(m,n)
    Dbar = (1/pi) d/dzbar,   Dbar chi_(m,n) = (-n + i m)  chi_(m,n)

have Gaussian-integer symbols, so every identity below is exact rational
arithmetic.  All verified statements are homogeneous in this rescaling.

Forms carry a bidegree in {(0,0), (1,0), (0,1), (1,1)} with the frames dz,
dzbar, and dz^dzbar; a (1,1) coefficient always refers to the dz^dzbar
orientation.  Wedging multiplies matrices and reorders frames with the sign
(-1)^(q1*p2).  Integration over the torus extracts the constant Fourier mode
of the trace (times the frozen volume constant), which kills every derivative
mode: Stokes holds exactly, with no tolerance.

This backend is a genus-1 stand-in used only for pointwise/integral algebra
that does not depend on the metric or the genus; degree bookkeeping lives in
:mod:`twistorsec.vhs`.  No harmonic-metric equation is imposed on the data:
operations compute residuals and never assume they vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

from .constants import VOLUME_CONST
from .scalars import QQi, conj, random_qqi, scalar_from_json, scalar_to_json

_SCALARS = (QQi, int, Fraction)


class FourierScalar:
    """A finite Fourier series on the torus.

    ``modes`` maps int pairs to nonzero coefficients.  The constructor casts
    the keys and drops zero coefficients.  Arithmetic builds its results with
    :func:`_fs` and drops a mode where a sum cancels to zero: coefficients lie
    in a field, so a product of nonzero coefficients is nonzero.
    """

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        cleaned = {}
        for (m, n), c in (modes or {}).items():
            if c:
                cleaned[(int(m), int(n))] = c
        object.__setattr__(self, "modes", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("FourierScalar is immutable")

    @classmethod
    def const(cls, c) -> "FourierScalar":
        return cls({(0, 0): c})

    @classmethod
    def char(cls, m: int, n: int, coeff=QQi(1)) -> "FourierScalar":
        return cls({(m, n): coeff})

    def items(self):
        return tuple(sorted(self.modes.items()))

    def constant_mode(self):
        return self.modes.get((0, 0), QQi(0))

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def __bool__(self):
        return bool(self.modes)

    def __add__(self, other):
        if type(other) is not FourierScalar:
            if isinstance(other, _SCALARS):
                other = FourierScalar.const(other)
            elif not isinstance(other, FourierScalar):
                return NotImplemented
        out = dict(self.modes)
        for k, c in other.modes.items():
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return _fs(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, FourierScalar) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _fs({k: -c for k, c in self.modes.items()})

    def __mul__(self, other):
        if type(other) is not FourierScalar:
            if isinstance(other, _SCALARS):
                if not other:
                    return _fs({})
                return _fs({k: c * other for k, c in self.modes.items()})
            if not isinstance(other, FourierScalar):
                return NotImplemented
        out = {}
        for (m1, n1), c1 in self.modes.items():
            for (m2, n2), c2 in other.modes.items():
                k = (m1 + m2, n1 + n2)
                c = c1 * c2
                if k in out:
                    c = out[k] + c
                    if not c:
                        del out[k]
                        continue
                out[k] = c
        return _fs(out)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def conjugate(self) -> "FourierScalar":
        """Complex conjugate: mode (m, n) goes to (-m, -n) with conjugated coefficient."""
        return _fs({(-m, -n): conj(c) for (m, n), c in self.modes.items()})

    def d_z(self) -> "FourierScalar":
        """Apply D: multiply mode (m, n) by n + i*m."""
        return _fs({(m, n): c * QQi(n, m) for (m, n), c in self.modes.items()
                    if m or n})

    def d_zbar(self) -> "FourierScalar":
        """Apply Dbar: multiply mode (m, n) by -n + i*m."""
        return _fs({(m, n): c * QQi(-n, m) for (m, n), c in self.modes.items()
                    if m or n})

    def __eq__(self, other):
        if type(other) is not FourierScalar:
            if isinstance(other, _SCALARS):
                other = FourierScalar.const(other)
            elif not isinstance(other, FourierScalar):
                return NotImplemented
        return self.modes == other.modes

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        if not self.modes:
            return "FourierScalar({})"
        terms = ", ".join(f"({m},{n}): {c!r}" for (m, n), c in self.items())
        return f"FourierScalar({{{terms}}})"


_set_modes = FourierScalar.modes.__set__


def _fs(modes: dict) -> FourierScalar:
    """A series that takes a fresh dict of nonzero coefficients at int keys."""
    fs = object.__new__(FourierScalar)
    _set_modes(fs, modes)
    return fs


FS_ZERO = FourierScalar()
FS_ONE = FourierScalar.const(QQi(1))

_BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1))


def matmul(a, b):
    """Product of two row matrices; each entry sums from its first product."""
    cols = tuple(zip(*b))
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in cols)
                 for row in a)


def _map_rows(rows, fn):
    return tuple(tuple(fn(e) for e in row) for row in rows)


@dataclass(frozen=True, eq=False)
class MatrixForm:
    """An r x r matrix of Fourier series tagged with a form bidegree."""

    bidegree: tuple
    size: int
    entries: tuple  # r rows, each a tuple of r FourierScalar

    def __post_init__(self):
        if tuple(self.bidegree) not in _BIDEGREES:
            raise ValueError(f"bad bidegree {self.bidegree}")
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != self.size or any(len(row) != self.size for row in rows):
            raise ValueError(f"entries must be {self.size}x{self.size}")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if not isinstance(e, FourierScalar):
                    raise TypeError(f"entry ({i}, {j}) must be a FourierScalar, "
                                    f"got {type(e).__name__}")
        object.__setattr__(self, "bidegree", tuple(self.bidegree))
        object.__setattr__(self, "entries", rows)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, size: int, bidegree=(0, 0)) -> "MatrixForm":
        return cls(bidegree, size, ((FS_ZERO,) * size,) * size)

    @classmethod
    def identity(cls, size: int) -> "MatrixForm":
        return cls.from_scalar_matrix([[QQi(int(r == c)) for c in range(size)]
                                       for r in range(size)])

    @classmethod
    def from_scalar_matrix(cls, matrix, bidegree=(0, 0)) -> "MatrixForm":
        """Constant-coefficient form from the rows of a plain scalar matrix."""
        rows = _map_rows(matrix, lambda c: FourierScalar.const(c) if c else FS_ZERO)
        return cls(bidegree, len(rows), rows)

    # -- linear structure -----------------------------------------------------

    def _combine(self, other, op):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if self.bidegree != other.bidegree or self.size != other.size:
            raise ValueError("bidegree/size mismatch")
        return MatrixForm(self.bidegree, self.size,
                          tuple(tuple(map(op, r, s))
                                for r, s in zip(self.entries, other.entries)))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return MatrixForm(self.bidegree, self.size,
                          _map_rows(self.entries, lambda e: -e))

    def __mul__(self, c):
        if isinstance(c, _SCALARS) or isinstance(c, FourierScalar):
            return MatrixForm(self.bidegree, self.size,
                              _map_rows(self.entries, lambda e: e * c))
        return NotImplemented

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return (self.bidegree == other.bidegree and self.size == other.size
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.bidegree, self.size, self.entries))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"bidegree": list(self.bidegree), "size": self.size,
                "entries": [[{"modes": [[m, n, scalar_to_json(c)]
                                        for (m, n), c in e.items()]}
                             for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, doc: dict) -> "MatrixForm":
        ent = [[FourierScalar({(m, n): scalar_from_json(c)
                               for m, n, c in cell["modes"]})
                for cell in row] for row in doc["entries"]]
        return cls(tuple(doc["bidegree"]), doc["size"], ent)


def dbar(f: MatrixForm) -> MatrixForm:
    """The (0,1)-raising derivative.

    On functions: (Dbar f) dzbar.  On (1,0)-forms a dz: (Dbar a) dzbar^dz =
    -(Dbar a) dz^dzbar, hence the sign.  Undefined on (0,1) and (1,1) inputs.
    """
    p, q = f.bidegree
    if q != 0:
        raise ValueError(f"dbar undefined on bidegree {f.bidegree}")
    if p == 0:
        return MatrixForm((0, 1), f.size, _map_rows(f.entries, FourierScalar.d_zbar))
    return MatrixForm((1, 1), f.size, _map_rows(f.entries, lambda e: -e.d_zbar()))


def del_op(f: MatrixForm) -> MatrixForm:
    """The (1,0)-raising derivative (mirror of dbar with holomorphic symbol)."""
    p, q = f.bidegree
    if p != 0:
        raise ValueError(f"del undefined on bidegree {f.bidegree}")
    return MatrixForm((1, q), f.size, _map_rows(f.entries, FourierScalar.d_z))


def wedge(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """Matrix product combined with the frame wedge; bidegrees add.

    Reordering dzbar-factors of a past dz-factors of b contributes
    (-1)^(q1*p2) relative to the canonical dz-before-dzbar frame.
    """
    if a.size != b.size:
        raise ValueError("size mismatch")
    p, q = a.bidegree[0] + b.bidegree[0], a.bidegree[1] + b.bidegree[1]
    if p > 1 or q > 1:
        raise ValueError(f"bidegree overflow: {a.bidegree} wedge {b.bidegree}")
    prod = MatrixForm((p, q), a.size, matmul(a.entries, b.entries))
    return -prod if (a.bidegree[1] * b.bidegree[0]) % 2 else prod


def wedge_bracket(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """The graded bracket [a ^ b] = a^b - (-1)^(|a||b|) b^a.

    For two 1-forms this is a^b + b^a; against a function it is the plain
    commutator.
    """
    sign = (sum(a.bidegree) * sum(b.bidegree)) % 2
    ba = wedge(b, a)
    return wedge(a, b) + (ba if sign else -ba)


def trace(f: MatrixForm) -> FourierScalar:
    return sum((row[i] for i, row in enumerate(f.entries)), FS_ZERO)


def integrate_trace(f: MatrixForm):
    """Integral over the torus of tr(f) for a (1,1)-form: volume times the
    constant Fourier mode of the trace coefficient."""
    if f.bidegree != (1, 1):
        raise ValueError(f"can only integrate (1,1)-forms, got {f.bidegree}")
    return VOLUME_CONST * trace(f).constant_mode()


def conj_transpose(f: MatrixForm) -> MatrixForm:
    """Adjoint for the identity metric: conjugate coefficients (negating modes),
    transpose the matrix, and swap dz with dzbar.

    A (1,1)-form picks up a sign because conjugating its frame reverses the
    orientation: conj(dz^dzbar) = -dz^dzbar.
    """
    p, q = f.bidegree
    out = MatrixForm((q, p), f.size,
                     _map_rows(zip(*f.entries), FourierScalar.conjugate))
    return -out if (p, q) == (1, 1) else out


def commutator(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """Plain matrix commutator a b - b a (at least one factor a function)."""
    return wedge(a, b) - wedge(b, a)


def random_fourier_scalar(rng, mode_bound: int = 2, terms: int = 3,
                          span: int = 6) -> FourierScalar:
    modes = {}
    for _ in range(terms):
        key = (rng.randint(-mode_bound, mode_bound), rng.randint(-mode_bound, mode_bound))
        coeff = random_qqi(rng, span)
        modes[key] = modes[key] + coeff if key in modes else coeff
    return FourierScalar(modes)


def random_matrix_form(rng, size: int, bidegree=(0, 0), mode_bound: int = 2,
                       terms: int = 2, trace_free: bool = False) -> MatrixForm:
    ent = [[random_fourier_scalar(rng, mode_bound, terms) for _ in range(size)]
           for _ in range(size)]
    if trace_free and size > 0:
        ent[-1][-1] = -sum((ent[i][i] for i in range(size - 1)), FS_ZERO)
    return MatrixForm(bidegree, size, ent)
