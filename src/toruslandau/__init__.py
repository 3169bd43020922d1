"""Landau levels on a magnetized torus in the holomorphic gauge.

Finite-dimensional Landau levels as theta-function sections, magnetic
translation operators and their projective algebra, flux quantization, and
the triangulated-mesh cocycle realization of the same quantization
condition.  All internal computation uses natural units (length
sqrt(hbar/(m*omega)), omega = e*B/(2*m*c); energy hbar*omega), where the
torus satisfies L1*L2 = N*pi.
"""

from .errors import (GeometryMismatch, IndexMismatch, NonIntegralFlux,
                     NotAPeriod, NotConstant, TorusLandauError, ZeroNorm)
from .geometry import (PhysicalConfig, TorusGeometry, dirac_quantize,
                       parse_config, resolve_geometry, to_natural)
from .lll_basis import (BoundaryPhases, ThetaBasisFunction, boundary_factors,
                        boundary_residual, double_shift_factors,
                        eval_fourier, eval_gaussian,
                        ground_basis, normalize, normalized_basis,
                        theta_basis, verify_recurrence)
from .levels import (DensityMap, GridField, PolynomialSection,
                     apply_hamiltonian, as_section, dbar_section,
                     density_map, deviation_decay, gram_matrix,
                     ground_section, hermitian_density, inner_product,
                     level_basis, raise_section, rayleigh_quotient)
from .translations import (TranslationMatrix,
                           bundle_shift_phase, commutator_matrix_residual,
                           commutator_phase, hamiltonian_commutation_residual,
                           is_lattice, lattice_indices, translate_section,
                           translation_matrix, translation_report,
                           wintner_check)
from .cocycle import (FluxResult, Triangulation, chi, cocycle_constant,
                      mesh_from_json, mesh_to_json, total_flux,
                      triangle_identity, uniform_mesh)

__version__ = "0.1.0"
