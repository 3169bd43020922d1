"""Central table of the package's tolerances.

Every threshold the package applies lives here: the acceptance checks', the
construction gates' (flux integrality, torus area, mesh validity) and the
classifiers' (lattice displacements, Wintner consistency).  Each consumer
calls get(name) where it applies the bound, never at import time, so the
table can be patched in one place.  The CLI prints it with
--show-tolerances and every run_manifest.json records it.
"""

TOLERANCES = {
    "flux_integrality_rel": (1e-9, "flux must be integer quanta within this, relative"),
    "geometry_area_rel": (1e-12, "constructed torus satisfies L1*L2 = N*pi to this"),
    "gram_identity_abs": (1e-10, "normalized Gram matrix entries vs identity"),
    "poisson_duality_rel": (1e-12, "Fourier vs Gaussian values, relative to sample max"),
    "boundary_residual_rel": (1e-12, "twisted-periodicity residual / max local magnitude"),
    "double_shift_abs": (1e-12, "two shift orders agree; per-path factor is (-1)^N"),
    "recurrence_rel": (1e-14, "closed-form coefficients vs recurrence, log space"),
    "density_shift_abs": (1e-10, "rho invariance under lattice shifts"),
    "density_mean_abs": (1e-10, "mean(rho)*L1*L2 vs N"),
    "decay_fit_rel": (0.10, "rms residual of the log-linear d(N) fit, relative"),
    "lattice_abs": (1e-12, "integer residuals of lattice displacements and periods"),
    "unitarity_abs": (1e-10, "lattice translation matrix unitarity defect"),
    "commutator_matrix_abs": (1e-9, "four-factor matrix product vs commutator phase"),
    "commutator_phase_abs": (1e-12, "commutator phase vs exp(2 pi i/N)"),
    "projection_defect_lattice": (1e-10, "projection defect at lattice displacements"),
    "projection_defect_half": (1e-4, "minimum defect at half-lattice midpoints"),
    "wintner_abs": (1e-12, "determinant consistency phase vs 1 on the lattice"),
    "wintner_witness_abs": (0.1, "minimum |phase - 1| for the half-lattice witness"),
    "rayleigh_ground_abs": (1e-12, "Rayleigh quotient on level 0"),
    "energy_level1_abs": (1e-8, "Rayleigh quotient vs 2 on level 1, hbar*omega units"),
    "eigen_residual_rel": (1e-8, "||H s - 2 s|| / ||s|| for raised sections"),
    "lift_closure_abs": (1e-9, "edge wraps of a triangle close its planar lift"),
    "mesh_area_rel": (1e-12, "triangle areas sum to L1*L2, relative"),
    "cocycle_constancy_rel": (1e-10, "triple chi sum spread, relative to max(1, |c|)"),
    "triangle_identity_rel": (1e-10, "per-triangle flux identity, relative"),
    "triangle_identity_abs": (1e-14, "absolute floor of the per-triangle identity"),
    "cocycle_sum_rel": (1e-9, "sum of cocycle constants vs B*L1*L2"),
    "weil_integrality_rel": (1e-9, "flux/(2 pi) vs nearest integer"),
    "edge_cancellation_abs": (1e-10, "mesh total of vertex+edge identity pieces"),
    "quadrature_doubling_abs": (1e-12, "inner-product change when the grid doubles"),
}


def format_table() -> str:
    width = max(len(k) for k in TOLERANCES)
    lines = [f"{'name':<{width}}  {'value':>9}  description",
             "-" * (width + 60)]
    for name, (value, desc) in TOLERANCES.items():
        lines.append(f"{name:<{width}}  {value:>9.3g}  {desc}")
    return "\n".join(lines)


def get(name: str) -> float:
    return TOLERANCES[name][0]
