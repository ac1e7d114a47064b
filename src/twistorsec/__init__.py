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
"""

from .constants import (ENERGY_BLOCK_COEFF, ENERGY_LIFT_COEFF, MU_COEFF,
                        OMEGA0_SPLIT_COEFF, OMEGA_HAT_COEFF, REALITY_SIGN,
                        VOLUME_CONST, XI_SCALAR_DLAMBDA, XI_SCALAR_PHIPSI)
from .datasets import load_vhs_dataset, render_table, vhs_energy_table
from .flat_model import (FlatPoint, FlatSection, d_energy,
                         energy, energy_infinity, evaluate, fundamental_field,
                         group_action, holomorphic_metric, local_biholo_jacobian,
                         moment_map, omega0_killing, omega0_splitting,
                         real_involution, relative_symplectic, residue_form_phi,
                         twist, twistor_line, zero_tangent)
from .lambda_lifts import (DHPoint, GaugeSeries, LambdaLift, LaurentConnection,
                           TangentSeries, admissible, bb_slice_residuals,
                           c_star_fixed_lift, c_star_on_point, d_energy_of_lift,
                           deligne_glue, energy_of_lift, gauge_tangent,
                           gauge_transform_lift, integrability_residuals,
                           lift_to_laurent, linearized_residuals, make_lift,
                           omega_hat, pair_unsigned, real_involution_chart,
                           real_involution_dh, second_variation,
                           second_variation_weighted, verify_fixed_relations,
                           xi_matrix_form)
from .projline import (E, F, H, INFINITY, SIGMA, PolySection, Sl2Element,
                       antipodal, h_pairing, killing, sigma_value, sl2_bracket,
                       wronskian, wronskian_infinity_chart)
from .report import ReportRecord, RunConfig, atomic_write, render_report
from .scalars import I, QQi, conj
from .suites import SUITES, run_suites
from .torus_forms import (FourierScalar, MatrixForm, commutator, conj_transpose,
                          dbar, del_op, integrate_trace, trace, wedge,
                          wedge_bracket)
from .vhs import (GradedBlockMatrix, VhsBlockData, XiElement, bb_slice_shape,
                  det_exponent, energy_closed, energy_recursive, g_lambda_ad_weight,
                  g_lambda_exponents, grafting_data, hyperhol_degree, xi_bracket,
                  xi_element, xi_matrix)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
