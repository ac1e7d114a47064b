"""Frozen normalization and sign conventions, with the oracle results that fixed them.

Every constant below was determined by an explicit derivation (recorded in the
test oracles) and is pinned by a live ``tests/mutants.json`` row or computed
from one that is.  Downstream code reads these values instead of re-deriving or
inlining them, so a convention changes in one place, with its justification.
"""

from fractions import Fraction

from .scalars import QQi

#: Fiber moment map mu(z, w) = MU_COEFF * |w|^2, normalized by mu(z, 0) = 0,
#: solving d(mu) = i * omega_I(X, -) for the standard flat Kaehler form
#: omega_I = (i/2)(dz^dzbar + dw^dwbar).
MU_COEFF = QQi(0, Fraction(-1, 2))

#: Per-block closed form of the section energy: E = ENERGY_BLOCK_COEFF * a2 * b1
#: summed over blocks (derived from the definitional formula; the conjugate
#: terms cancel identically).
ENERGY_BLOCK_COEFF = QQi(0, Fraction(1, 2))

#: Sign in the reality relation conj(E(tau(s))) = REALITY_SIGN * E(s) (+ a
#: locally constant term, which is 0 on the flat model).  tau sends a block's
#: (a2, b1) to (-conj(b1), -conj(a2)), so with c = ENERGY_BLOCK_COEFF,
#: conj(E(tau(s))) = conj(c * conj(a2 * b1)) = (conj(c) / c) * E(s): -1 here.
REALITY_SIGN = ENERGY_BLOCK_COEFF.conjugate() / ENERGY_BLOCK_COEFF

#: Prefactor of the splitting construction of the degenerate-point symplectic
#: form: Omega_0(V, W) = OMEGA0_SPLIT_COEFF * (g(V_0, W_inf) - g(V_inf, W_0)).
#: Fixed by requiring exact agreement with the Killing-pairing construction.
OMEGA0_SPLIT_COEFF = QQi(0, Fraction(-1, 2))

#: Prefactor c of the energy of a truncated lambda-connection lift,
#: E = ENERGY_LIFT_COEFF * integral(tr(Phi ^ Psi_1)).  The transcendental
#: normalization of the underlying surface integral is absorbed here.  With
#: c = 1 and the prefactor -i/2 of the two-form below, the Hessian at a
#: circle-fixed lift is Hess E(t, t) = 2 * Omega_hat(t, A t), A the circle
#: field on tangents; that identity ties the two constants together.
ENERGY_LIFT_COEFF = QQi(1)

#: Global prefactor of the holomorphic two-form on lift tangents, fixed with
#: ENERGY_LIFT_COEFF by Hess E(t, t) = 2 * Omega_hat(t, A t) (see above).
OMEGA_HAT_COEFF = QQi(0, Fraction(-1, 2))

#: Scalar c such that the order-zero fixed-point relations hold with
#: xi_0 = c * xi: namely Phi = [Phi, xi_0] and 0 = dbar(xi_0).
XI_SCALAR_PHIPSI = QQi(-1)
