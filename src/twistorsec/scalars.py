"""Gaussian-rational scalars shared by every module.

:class:`QQi` is a Gaussian rational stored as three Python ints ``(a, b, d)``
meaning ``(a + b*i)/d``, in the normal form ``d > 0`` and
``gcd(a, b, d) == 1`` (zero is ``(0, 0, 1)``).  The normal form is unique, so
equality compares the ints.  All arithmetic is closed, so identities are
asserted with ``==`` and no tolerance.  ``QQi`` is the only scalar that meets
``QQi`` arithmetic: ``+ - * /`` with any other operand raise ``TypeError``,
and ``QQi(1) == 1`` is ``False``.  So every exact value the library computes
is a ``QQi``, and renders one way.  The constructor takes an ``int`` (not a
``bool``) or a ``Fraction`` for each part.  Only this module reads the ints:
:func:`_sum_products`, the mode loop of every Fourier-series product, sums on
them and normalizes once per stored coefficient, :func:`_times_symbol` applies
a derivative's symbol on them, and the text and JSON forms are written from
them.  ``+``, ``-`` and ``*`` divide their result by its gcd in their own
frame, with no call to :func:`_make`; ``/`` and the kernels call it.
Negation and conjugation compute no gcd: negating one or both of ``a`` and
``b`` keeps ``gcd(a, b, d) == 1`` and ``d > 0``, so the result is already in
normal form.  :func:`draw` draws an int as ``rng.randint`` does;
:func:`random_qqi` and :func:`random_term`, which draw most of the ints of a
run, replay its rule inline.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from math import gcd, lcm

_new = object.__new__
_PARTS = (int, Fraction)


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


def _sum_products(start: dict, products) -> dict:
    """The modes of start + sum of x * y (with ``negate``, minus x * y) over the
    (negate, x, y) in products, where start, x and y map modes to QQi.  Each
    mode that a product reaches sums on ints ``(re, im, den)``, from the start
    coefficient if there is one: a product joins it over the lcm of the two
    denominators.  A sum that cancels drops its mode, each other costs one
    :func:`_make`, and a mode of start that no product reaches is kept as is."""
    acc = {}
    for negate, x, y in products:
        for (m1, n1), c1 in x.items():
            a, b, d = (-c1._a, -c1._b, c1._d) if negate else (c1._a, c1._b, c1._d)
            for (m2, n2), c2 in y.items():
                c, e = c2._a, c2._b
                re, im, den = a * c - b * e, a * e + b * c, d * c2._d
                k = (m1 + m2, n1 + n2)
                old = acc.get(k)
                if old is None and k in start:  # the first product to reach it
                    z = start[k]
                    old = z._a, z._b, z._d
                if old is not None:
                    p, q, f = old
                    if f == den:
                        re, im = re + p, im + q
                    else:  # over lcm(f, den) = f * s = den * t
                        g = gcd(f, den)
                        s, t = den // g, f // g
                        re, im, den = re * t + p * s, im * t + q * s, f * s
                acc[k] = (re, im, den)
    out = dict(start)
    for k, (re, im, den) in acc.items():
        if re or im:
            out[k] = _make(re, im, den)
        else:
            out.pop(k, None)
    return out


def _times_symbol(modes: dict, s: int, t: int) -> dict:
    """The modes (m, n) of ``modes`` other than (0, 0), each coefficient times
    the Gaussian integer s*n + t*m*i (the symbol of a derivative, for s and t
    each 1 or -1): one :func:`_make` per mode.  The symbol vanishes only at
    (0, 0), so no stored coefficient is 0."""
    out = {}
    for (m, n), c in modes.items():
        if m or n:
            a, b, p, q = c._a, c._b, s * n, t * m
            out[(m, n)] = _make(a * p - b * q, a * q + b * p, c._d)
    return out


class QQi:
    """A Gaussian rational ``(a + b*i)/d`` over one positive denominator.

    The three slots are private and never assigned after construction, so a
    ``QQi`` is immutable and hashable.  ``str`` writes each part as
    ``str(Fraction)`` would.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        if type(re) not in _PARTS or type(im) not in _PARTS:
            raise TypeError(f"QQi parts must be int or Fraction, got "
                            f"{type(re).__name__} and {type(im).__name__}")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not QQi:
            return NotImplemented
        c, e, f = other._a, other._b, other._d
        d = self._d
        if d == f:
            a, b = self._a + c, self._b + e
        else:
            a, b, d = self._a * f + c * d, self._b * f + e * d, d * f
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        q = _new(QQi)
        q._a, q._b, q._d = a, b, d
        return q

    # No valid operand reaches it; perfbench/tracing.py counts it by name.
    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QQi:
            return NotImplemented
        c, e, f = other._a, other._b, other._d
        d = self._d
        if d == f:
            a, b = self._a - c, self._b - e
        else:
            a, b, d = self._a * f - c * d, self._b * f - e * d, d * f
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        q = _new(QQi)
        q._a, q._b, q._d = a, b, d
        return q

    def __mul__(self, other):
        if type(other) is not QQi:
            return NotImplemented
        c, e = other._a, other._b
        a, b = self._a, self._b
        a, b, d = a * c - b * e, a * e + b * c, self._d * other._d
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        q = _new(QQi)
        q._a, q._b, q._d = a, b, d
        return q

    # No valid operand reaches it; perfbench/tracing.py counts it by name.
    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QQi:
            return NotImplemented
        c, e, f = other._a, other._b, other._d
        n2 = c * c + e * e
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self._a, self._b
        return _make(f * (a * c + b * e), f * (b * c - a * e), self._d * n2)

    def __neg__(self):
        q = _new(QQi)
        q._a, q._b, q._d = -self._a, -self._b, self._d
        return q

    def conjugate(self) -> "QQi":
        q = _new(QQi)
        q._a, q._b, q._d = self._a, -self._b, self._d
        return q

    # -- comparisons / conversions -------------------------------------------

    def __eq__(self, other):
        if type(other) is not QQi:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __str__(self):
        b, d = self._b, self._d
        if b == 0:
            return _ratio_text(self._a, d)
        if b < 0:
            return f"{_ratio_text(self._a, d)}-{_ratio_text(-b, d)}i"
        return f"{_ratio_text(self._a, d)}+{_ratio_text(b, d)}i"

    def __repr__(self):
        return f"QQi('{self}')"


I = QQi(0, 1)
HALF = QQi(Fraction(1, 2))


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without building the Fraction.
    A part past Python's int-to-str digit limit raises ``ValueError`` as
    there."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_to_json(z: QQi):
    """``[re_num, re_den, im_num, im_den]``, each part in lowest terms."""
    a, b, d = z._a, z._b, z._d
    g, h = gcd(a, d), gcd(b, d)
    return [a // g, d // g, b // h, d // h]


def scalar_from_json(value, what: str = "scalar payload"):
    """Inverse of :func:`scalar_to_json`: four ints, neither denominator 0.
    A malformed value raises ValueError, naming it as ``what``."""
    if type(value) is not list or [*map(type, value)] != [int] * 4 or 0 in value[1::2]:
        raise ValueError(f"{what} {reprlib.repr(value)} is not four ints [re_num, re_den, "
                         f"im_num, im_den] with nonzero denominators")
    rn, rd, im_n, im_d = value
    return QQi(Fraction(rn, rd), Fraction(im_n, im_d))


def draw(rng, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: the same value and the same state after.  Like
    CPython 3.11 it reads k = n.bit_length() bits for the n = hi - lo + 1
    values until they read less than n, but skips randint's argument checks.
    :func:`random_qqi` and :func:`random_term` replay this rule inline."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range for draw ({lo}, {hi})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def random_qqi(rng, span: int = 9) -> QQi:
    """Deterministic random Gaussian rational a/b + (c/e)i with a, c in
    [-span, span] and b, e in [1, 4], drawn in that order, each as
    :func:`draw` draws it (one ``getrandbits(3)`` for 4 values)."""
    n = 2 * span + 1
    if n < 1:
        raise ValueError(f"empty range for draw ({-span}, {span})")
    k, bits = n.bit_length(), rng.getrandbits
    a = bits(k)
    while a >= n:
        a = bits(k)
    b = bits(3)
    while b >= 4:
        b = bits(3)
    c = bits(k)
    while c >= n:
        c = bits(k)
    e = bits(3)
    while e >= 4:
        e = bits(3)
    return _make((a - span) * (e + 1), (c - span) * (b + 1), (b + 1) * (e + 1))


def random_term(rng, mode_bound: int):
    """One term of a random Fourier series: the mode (m, n) with m, n in
    [-mode_bound, mode_bound], drawn as :func:`draw` draws them, then the
    coefficient ``random_qqi(rng, 6)``."""
    n = 2 * mode_bound + 1
    if n < 1:
        raise ValueError(f"empty range for draw ({-mode_bound}, {mode_bound})")
    k, bits = n.bit_length(), rng.getrandbits
    m = bits(k)
    while m >= n:
        m = bits(k)
    r = bits(k)
    while r >= n:
        r = bits(k)
    return (m - mode_bound, r - mode_bound), random_qqi(rng, 6)


def random_nonzero_qqi(rng) -> QQi:
    while True:
        z = random_qqi(rng)
        if z:
            return z
