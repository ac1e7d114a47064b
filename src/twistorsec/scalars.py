"""Gaussian-rational scalars shared by every module.

:class:`QQi` is a Gaussian rational with ``fractions.Fraction`` real and
imaginary parts.  All arithmetic is closed, so identities are asserted with
``==`` and no tolerance.  ``QQi`` combines with ``int`` and ``Fraction`` and
stays exact; combining it with ``float`` or ``complex`` raises ``TypeError``.
Library code relies only on ``+``, ``*`` and ``conjugate()``, so it also runs
on plain ``int`` and ``Fraction`` inputs.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

_EXACT_PARTS = (int, Fraction)


class QQi:
    """A Gaussian rational ``re + im*i`` with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QQi):
            re, im = re.re, re.im + Fraction(im)
        elif isinstance(re, str) and ("i" in re):
            parsed = QQi.parse(re)
            re, im = parsed.re, parsed.im
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QQi is immutable")

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

    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, _EXACT_PARTS):
            return QQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        res = self.__sub__(other)
        return NotImplemented if res is NotImplemented else -res

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / n2,
                   (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

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
        return QQi(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / conversions -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

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
