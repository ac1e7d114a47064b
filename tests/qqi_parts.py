"""The parts of a ``QQi`` as ``Fraction``, read off its three ints.

The test oracles view a scalar only through :func:`fraction_parts`, so they
depend neither on its text nor on its JSON form.
"""

from fractions import Fraction


def fraction_parts(q):
    """``(re, im)`` of the Gaussian rational ``q = (a + b*i)/d``."""
    return Fraction(q._a, q._d), Fraction(q._b, q._d)
