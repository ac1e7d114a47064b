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
(-1)^(q1*p2).  Every wedge, graded bracket and series coefficient sum is one
:func:`wedge_sum`, which fills each output entry in one pass; its Gaussian
multiply-add is ``scalars._sum_products``, next to ``QQi`` so that no other
module reads the ints of a ``QQi``.  It sums each mode on ints and normalizes
once per stored coefficient.  Series and forms are records, equal by value.
The operations build their results with :func:`_fs` and :func:`_mf`, which
skip the constructors' checks; those hold for what the operations build from
valid forms, and every form built from outside input goes through the
checked ``MatrixForm(...)``.  Integration over the torus (of volume 1) reads
the constant Fourier mode of the trace, which kills every derivative mode:
Stokes holds exactly, with no tolerance.

This backend is a genus-1 stand-in used only for pointwise/integral algebra
that does not depend on the metric or the genus; degree bookkeeping lives in
:mod:`twistorsec.vhs`.  No harmonic-metric equation is imposed on the data:
operations compute residuals and never assume they vanish.
"""

from __future__ import annotations

import reprlib
from operator import add

from .records import Record
from .scalars import (QQi, _sum_products, _times_symbol, random_term,
                      scalar_from_json, scalar_to_json)


class FourierScalar(Record):
    """A finite Fourier series on the torus.

    ``modes`` maps int pairs to nonzero coefficients; the constructor drops
    zero coefficients.  Arithmetic builds its results with :func:`_fs` and
    drops a mode where a sum cancels to zero: coefficients lie in a field, so
    a product of nonzero coefficients is nonzero.  A product of series runs
    the one mode loop, ``scalars._sum_products``, which normalizes each
    stored coefficient once.  A series adds to and compares with a series
    only; ``*`` also takes a ``QQi`` on the right.
    """

    __slots__ = _fields = ("modes",)

    def __init__(self, modes=None):
        object.__setattr__(self, "modes",
                           {k: c for k, c in (modes or {}).items() if c})

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

    def __bool__(self):
        return bool(self.modes)

    def __add__(self, other):
        if not isinstance(other, FourierScalar):
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

    def __neg__(self):
        return _fs({k: -c for k, c in self.modes.items()})

    def __mul__(self, other):
        if type(other) is FourierScalar:
            return _fs(_sum_products({}, ((False, self.modes, other.modes),)))
        if type(other) is not QQi:
            return NotImplemented
        if not other:
            return _fs({})
        return _fs({k: c * other for k, c in self.modes.items()})

    def conjugate(self) -> "FourierScalar":
        """Complex conjugate: mode (m, n) goes to (-m, -n) with conjugated coefficient."""
        return _fs({(-m, -n): c.conjugate() for (m, n), c in self.modes.items()})

    def d_z(self) -> "FourierScalar":
        """Apply D: multiply mode (m, n) by n + i*m."""
        return _fs(_times_symbol(self.modes, 1, 1))

    def d_zbar(self) -> "FourierScalar":
        """Apply Dbar: multiply mode (m, n) by -n + i*m."""
        return _fs(_times_symbol(self.modes, -1, 1))

    def __hash__(self):  # the one field is a dict
        return hash(self.items())


_set_modes = FourierScalar.modes.__set__


def _fs(modes: dict) -> FourierScalar:
    """A series that takes a fresh dict of nonzero coefficients at int keys."""
    fs = object.__new__(FourierScalar)
    _set_modes(fs, modes)
    return fs


FS_ZERO = FourierScalar()

_BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1))


def _map_rows(rows, fn):
    return tuple(tuple(fn(e) for e in row) for row in rows)


class MatrixForm(Record):
    """An r x r matrix of Fourier series tagged with a form bidegree.

    ``entries`` holds r rows, each a tuple of r ``FourierScalar``.
    """

    __slots__ = _fields = ("bidegree", "entries")

    def __init__(self, bidegree, entries):
        if tuple(bidegree) not in _BIDEGREES:
            raise ValueError(f"bad bidegree {bidegree}")
        rows = tuple(tuple(row) for row in entries)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("entries must be a square matrix")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if not isinstance(e, FourierScalar):
                    raise TypeError(f"entry ({i}, {j}) must be a FourierScalar, "
                                    f"got {type(e).__name__}")
        object.__setattr__(self, "bidegree", tuple(bidegree))
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, size: int, bidegree=(0, 0)) -> "MatrixForm":
        return cls(bidegree, ((FS_ZERO,) * size,) * size)

    @classmethod
    def from_scalar_matrix(cls, matrix, bidegree=(0, 0)) -> "MatrixForm":
        """Constant-coefficient form from the rows of a plain scalar matrix."""
        rows = _map_rows(matrix, lambda c: FourierScalar.const(c) if c else FS_ZERO)
        return cls(bidegree, rows)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        if self.bidegree != other.bidegree or self.size != other.size:
            raise ValueError("bidegree/size mismatch")
        return _mf(self.bidegree, tuple(tuple(map(add, r, s))
                                        for r, s in zip(self.entries, other.entries)))

    def __neg__(self):
        return _mf(self.bidegree, _map_rows(self.entries, lambda e: -e))

    def __mul__(self, c):
        if type(c) is QQi or type(c) is FourierScalar:
            return _mf(self.bidegree, _map_rows(self.entries, lambda e: e * c))
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not any(e for row in self.entries for e in row)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"bidegree": list(self.bidegree), "size": self.size,
                "entries": [[{"modes": [[m, n, scalar_to_json(c)]
                                        for (m, n), c in e.items()]}
                             for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, doc: dict) -> "MatrixForm":
        """The form of a ``to_json`` document, whose ``size`` must be the int
        count of its rows, and whose every entry lists each int mode once."""
        rows = _list(doc.get("entries") if type(doc) is dict else None, "field 'entries'")
        ent = [[_series_from_json(cell, i, j) for j, cell in enumerate(_list(r, f"row {i}"))]
               for i, r in enumerate(rows)]
        form = cls(tuple(_list(doc.get("bidegree"), "field 'bidegree'")), ent)
        if type(doc.get("size")) is not int or doc["size"] != form.size:
            raise ValueError(f"declared size {reprlib.repr(doc.get('size'))} disagrees "
                             f"with the {form.size} rows of the form")
        return form


def _list(value, what: str) -> list:
    """A list read from a form document; ``what`` names it if it is not one."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {reprlib.repr(value)}")
    return value


def _series_from_json(cell, i: int, j: int) -> FourierScalar:
    """The series of the ``[m, n, scalar]`` modes of entry (i, j)."""
    at, out = f"entry ({i}, {j})", {}
    for mode in _list(cell.get("modes") if type(cell) is dict else None, f"{at} modes"):
        if type(mode) is not list or len(mode) != 3:
            raise ValueError(f"{at} mode {reprlib.repr(mode)} is not [m, n, scalar]")
        m, n, c = mode
        where = f"{at} mode {reprlib.repr([m, n])}"
        if type(m) is not int or type(n) is not int:
            raise ValueError(f"{where} must be a pair of ints")
        if (m, n) in out:
            raise ValueError(f"{where} is listed twice")
        out[m, n] = scalar_from_json(c, f"{where} coefficient")
    return FourierScalar(out)


_set_bidegree, _set_entries = MatrixForm.bidegree.__set__, MatrixForm.entries.__set__


def _mf(bidegree: tuple, rows: tuple) -> MatrixForm:
    """The form of a bidegree among the four and a square tuple of tuple rows
    of series, without the checks of ``MatrixForm(...)``: only for rows that
    an operation built from valid forms."""
    f = object.__new__(MatrixForm)
    _set_bidegree(f, bidegree)
    _set_entries(f, rows)
    return f


def dbar(f: MatrixForm) -> MatrixForm:
    """The (0,1)-raising derivative.

    On functions: (Dbar f) dzbar.  On (1,0)-forms a dz: (Dbar a) dzbar^dz =
    -(Dbar a) dz^dzbar, hence the symbol n - i*m of -Dbar there.  Undefined
    on (0,1) and (1,1) inputs.
    """
    p, q = f.bidegree
    if q != 0:
        raise ValueError(f"dbar undefined on bidegree {f.bidegree}")
    if p == 0:
        return _mf((0, 1), _map_rows(f.entries, FourierScalar.d_zbar))
    return _mf((1, 1), _map_rows(f.entries,
                                 lambda e: _fs(_times_symbol(e.modes, 1, -1))))


def del_op(f: MatrixForm) -> MatrixForm:
    """The (1,0)-raising derivative (mirror of dbar with holomorphic symbol)."""
    p, q = f.bidegree
    if p != 0:
        raise ValueError(f"del undefined on bidegree {f.bidegree}")
    return _mf((1, q), _map_rows(f.entries, FourierScalar.d_z))


def _wedge_bidegree(a: MatrixForm, b: MatrixForm) -> tuple:
    """The bidegree of wedge(a, b), after checking that a and b wedge."""
    if a.size != b.size:
        raise ValueError("size mismatch")
    p, q = a.bidegree[0] + b.bidegree[0], a.bidegree[1] + b.bidegree[1]
    if p > 1 or q > 1:
        raise ValueError(f"bidegree overflow: {a.bidegree} wedge {b.bidegree}")
    return p, q


def wedge_sum(start: MatrixForm, terms) -> MatrixForm:
    """start + sum s * wedge(a, b) over the (s, a, b) in terms, with s = 1 or -1.

    wedge(a, b) is the matrix product combined with the frame wedge; each term
    must land in the size and bidegree of start.  Moving the dzbar-factors of
    a past the dz-factors of b gives the frame sign (-1)^(q1*p2) relative to
    the canonical dz-before-dzbar frame, and it is folded into s.  Each output
    entry is one dict of modes, filled by one pass over its products in every
    term; an entry that no product reaches is the entry of start.
    """
    shape, fused = (start.size, start.bidegree), []
    for s, a, b in terms:
        if s not in (1, -1) or (a.size, _wedge_bidegree(a, b)) != shape:
            raise ValueError(f"term {s!r} * {a.bidegree} wedge {b.bidegree} does not "
                             f"land in size {start.size} and bidegree {start.bidegree}")
        if not (a.is_zero or b.is_zero):
            negate = (s < 0) != (a.bidegree[1] * b.bidegree[0] == 1)
            fused.append((negate, [[x.modes for x in row] for row in a.entries],
                          [[y.modes for y in col] for col in zip(*b.entries)]))
    rows = []
    for i, start_row in enumerate(start.entries):
        row = []
        for j, e in enumerate(start_row):
            products = [(negate, x, y) for negate, a_rows, b_cols in fused
                        for x, y in zip(a_rows[i], b_cols[j]) if x and y]
            row.append(_fs(_sum_products(e.modes, products)) if products else e)
        rows.append(tuple(row))
    return _mf(start.bidegree, tuple(rows))


def bracket_terms(a: MatrixForm, b: MatrixForm) -> tuple:
    """The :func:`wedge_sum` terms of the graded bracket
    [a ^ b] = a^b - (-1)^(|a||b|) b^a."""
    return ((1, a, b), (1 if sum(a.bidegree) * sum(b.bidegree) % 2 else -1, b, a))


def wedge(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """Matrix product combined with the frame wedge; bidegrees add."""
    return wedge_sum(MatrixForm.zero(a.size, _wedge_bidegree(a, b)), ((1, a, b),))


def wedge_bracket(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """The graded bracket [a ^ b]: for two 1-forms a^b + b^a, against a
    function the plain commutator."""
    return wedge_sum(MatrixForm.zero(a.size, _wedge_bidegree(a, b)), bracket_terms(a, b))


def trace(f: MatrixForm) -> FourierScalar:
    return sum((row[i] for i, row in enumerate(f.entries)), FS_ZERO)


def integrate_trace(f: MatrixForm):
    """Integral over the torus of tr(f) for a (1,1)-form: the constant Fourier
    mode of the trace coefficient."""
    if f.bidegree != (1, 1):
        raise ValueError(f"can only integrate (1,1)-forms, got {f.bidegree}")
    return trace(f).constant_mode()


def pair_trace(a: MatrixForm, b: MatrixForm):
    """integrate_trace(wedge(a, b)) for a (1,0)-form a and a (0,1)-form b, read
    off without forming the product:
    sum_ij sum_(m,n) a_ij[(m,n)] * b_ji[(-m,-n)].  In this order the frame
    sign of the wedge is +1."""
    if a.bidegree != (1, 0) or b.bidegree != (0, 1):
        raise ValueError(f"pair_trace pairs a (1,0)-form with a (0,1)-form, "
                         f"got {a.bidegree} and {b.bidegree}")
    if a.size != b.size:
        raise ValueError("size mismatch")
    total = QQi(0)
    for row, col in zip(a.entries, zip(*b.entries)):
        for x, y in zip(row, col):
            y_modes = y.modes
            for (m, n), c in x.modes.items():
                d = y_modes.get((-m, -n))
                if d is not None:
                    total = total + c * d
    return total


def conj_transpose(f: MatrixForm) -> MatrixForm:
    """Adjoint for the identity metric: conjugate coefficients (negating modes),
    transpose the matrix, and swap dz with dzbar.

    A (1,1)-form picks up a sign because conjugating its frame reverses the
    orientation: conj(dz^dzbar) = -dz^dzbar.
    """
    p, q = f.bidegree
    out = _mf((q, p), _map_rows(zip(*f.entries), FourierScalar.conjugate))
    return -out if (p, q) == (1, 1) else out


def random_fourier_scalar(rng, mode_bound: int = 2, terms: int = 3) -> FourierScalar:
    """The sum of ``terms`` terms ``scalars.random_term(rng, mode_bound)``;
    a mode whose terms cancel is dropped."""
    modes = {}
    for _ in range(terms):
        key, coeff = random_term(rng, mode_bound)
        modes[key] = modes[key] + coeff if key in modes else coeff
    return _fs({k: c for k, c in modes.items() if c})


def random_matrix_form(rng, size: int, bidegree=(0, 0), mode_bound: int = 2,
                       terms: int = 2, trace_free: bool = False) -> MatrixForm:
    """A form of random series entries, drawn row by row; with ``trace_free``
    the last diagonal entry, drawn too, is replaced by minus the others."""
    bidegree = tuple(bidegree)
    if bidegree not in _BIDEGREES:
        raise ValueError(f"bad bidegree {bidegree}")
    ent = [[random_fourier_scalar(rng, mode_bound, terms) for _ in range(size)]
           for _ in range(size)]
    if trace_free:
        ent[-1][-1] = -sum((ent[i][i] for i in range(size - 1)), FS_ZERO)
    return _mf(bidegree, tuple(map(tuple, ent)))
