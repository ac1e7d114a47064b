"""Shared test setup.

Registers a sympy converter for the exact scalar type, so library formulas
can be evaluated on symbolic inputs and identities checked coefficient by
coefficient.  The embedding is exact (Gaussian rational -> Rational + I*Rational).
"""

import sympy
from sympy.core.sympify import converter

from twistorsec.scalars import QQi

from qqi_parts import fraction_parts


def _to_sympy(q):
    re, im = fraction_parts(q)
    return sympy.Rational(re) + sympy.Rational(im) * sympy.I


converter[QQi] = _to_sympy
