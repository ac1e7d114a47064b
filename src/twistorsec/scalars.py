"""Gaussian-rational scalars shared by every module.

:class:`QQi` is a Gaussian rational stored as three Python ints ``(a, b, d)``
meaning ``(a + b*i)/d``, in the normal form ``d > 0`` and
``gcd(a, b, d) == 1`` (zero is ``(0, 0, 1)``).  The normal form is unique, so
equality compares the ints.  All arithmetic is closed, so identities are
asserted with ``==`` and no tolerance.  ``QQi`` combines with ``int`` and
``Fraction`` and stays exact; combining it with ``float`` or ``complex`` raises
``TypeError``.  Library code relies only on ``+``, ``*`` and ``conjugate()``,
so it also runs on plain ``int`` and ``Fraction`` inputs.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


def _make(a: int, b: int, d: int) -> "QQi":
    """The QQi ``(a + b*i)/d`` for ints with ``d > 0``, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(QQi)
    q._a = a
    q._b = b
    q._d = d
    return q


def _parts(x):
    """``(a, b, d)`` of an exact operand in normal form, or None."""
    if type(x) is QQi:
        return x._a, x._b, x._d
    if type(x) is int:
        return x, 0, 1
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


class QQi:
    """A Gaussian rational ``(a + b*i)/d`` over one positive denominator.

    ``re`` and ``im`` read the parts back as ``Fraction``.  The three slots
    are private and never assigned after construction, so a ``QQi`` is
    immutable and hashable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        if isinstance(re, QQi):
            re, im = re.re, re.im + Fraction(im)
        elif isinstance(re, str) and ("i" in re):
            parsed = QQi.parse(re)
            re, im = parsed.re, parsed.im
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "QQi":
        """Inverse of ``str``: accepts e.g. ``"-3/2"``, ``"0+3i"``, ``"1/2-3/4i"``."""
        s = text.strip().replace(" ", "")
        m = _re.fullmatch(r"([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?", s)
        if not m:
            raise ValueError(f"not a Gaussian rational literal: {text!r}")
        re_part, im_part = m.group(1), m.group(2)
        return cls(Fraction(re_part), Fraction(im_part) if im_part else 0)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        if d == f:
            return _make(self._a + c, self._b + e, d)
        return _make(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        if d == f:
            return _make(self._a - c, self._b - e, d)
        return _make(self._a * f - c * d, self._b * f - e * d, d * f)

    def __rsub__(self, other):
        res = self.__sub__(other)
        return NotImplemented if res is NotImplemented else -res

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b = self._a, self._b
        return _make(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        n2 = c * c + e * e
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self._a, self._b
        return _make(f * (a * c + b * e), f * (b * c - a * e), self._d * n2)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(*o).__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (QQi(1) / self) ** (-n)
        out = QQi(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conjugate(self) -> "QQi":
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- comparisons / conversions -------------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __str__(self):
        if self._b == 0:
            return str(self.re)
        im = self.im
        sign = "+" if im >= 0 else "-"
        return f"{self.re}{sign}{abs(im)}i"

    def __repr__(self):
        return f"QQi('{self}')"


I = QQi(0, 1)
HALF = Fraction(1, 2)


def conj(z):
    """Complex conjugate, generic over QQi / int / Fraction."""
    if isinstance(z, Fraction):
        return z
    return z.conjugate()


def scalar_to_json(z):
    """``[re_num, re_den, im_num, im_den]``."""
    q = z if isinstance(z, QQi) else QQi(z)
    return [q.re.numerator, q.re.denominator, q.im.numerator, q.im.denominator]


def scalar_from_json(value):
    """Inverse of :func:`scalar_to_json`."""
    if len(value) != 4:
        raise ValueError(f"malformed scalar payload: {value!r}")
    rn, rd, im_n, im_d = value
    return QQi(Fraction(rn, rd), Fraction(im_n, im_d))


def random_qqi(rng, span: int = 9, den: int = 4) -> QQi:
    """Deterministic random Gaussian rational with numerators in [-span, span]."""
    return QQi(Fraction(rng.randint(-span, span), rng.randint(1, den)),
               Fraction(rng.randint(-span, span), rng.randint(1, den)))


def random_nonzero_qqi(rng, span: int = 9, den: int = 4) -> QQi:
    while True:
        z = random_qqi(rng, span, den)
        if z:
            return z
