"""Landau levels on a magnetized torus in the holomorphic gauge.

Finite-dimensional Landau levels as theta-function sections, magnetic
translation operators and their projective algebra, flux quantization, and
the triangulated-mesh cocycle realization of the same quantization
condition.  All internal computation uses natural units (length
sqrt(hbar/(m*omega)), omega = e*B/(2*m*c); energy hbar*omega), where the
torus satisfies L1*L2 = N*pi.
"""

from .errors import (GeometryMismatch, NonIntegralFlux, NotAPeriod,
                     NotConstant, TorusLandauError, ZeroNorm)
from .geometry import (PhysicalConfig, TorusGeometry, dirac_quantize,
                       parse_config, resolve_geometry, to_natural)
from .lll_basis import (BoundaryPhases, ThetaBasisFunction, boundary_factors,
                        boundary_residual, boundary_residuals,
                        double_shift_factors,
                        duality_residual, eval_fourier, eval_fourier_stack,
                        eval_gaussian, ground_basis, normalize,
                        normalized_basis, theta_basis)
from .levels import (DensityMap, GridField, PolynomialSection,
                     as_section, dbar_section,
                     density_map, gram_matrix, ground_section, inner_product,
                     level_basis, raise_section, rayleigh_quotient,
                     rayleigh_quotients)
from .translations import (TranslationMatrix,
                           bundle_shift_phase, commutator_matrix_residual,
                           commutator_phase, lattice_indices, translate_section,
                           translate_sections, translation_matrices,
                           translation_matrix, translation_report,
                           wintner_check)
from .cocycle import (FluxResult, Triangulation, chi, cocycle_constant,
                      total_flux, triangle_identity, uniform_mesh)

__version__ = "0.1.0"
