"""Exact toolkit for holomorphic sections of twistor families and their energy.

The package has three layers.  A projective-line layer carries the degree-1
section calculus, the Wronskian pairing, and the sl2 model of the rotating
circle action.  A flat-model layer realizes sections, the holomorphic
symplectic form, the moment-map/energy identity, and the antiholomorphic
involution on exact rational data.  A lambda-connection layer builds
truncated series of connection pairs over an exact torus Fourier backend,
with the energy, its variations, circle-fixed lifts from graded block data,
and the regluing/involution bookkeeping of the parameter line.  Everything
is verified by named, seeded suites behind the ``twistorsec`` CLI.

Callers import from the submodules; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
