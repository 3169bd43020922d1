"""Magnetic translations, their projective algebra, and the residual Z_N x Z_N.

The unitary magnetic translation acts as

    (T_a s)(z) = exp(conj(a) z - |a|^2/2) * s(z - a),

where s(z - a) is found through the twisted periodicity conditions: the
argument is reduced into the fundamental domain step by step, accumulating
the exact boundary exponent.  T_a commutes with the Hamiltonian as a
differential operator but preserves the section boundary conditions only for
a on the lattice (n1 L1 + i n2 L2)/N; translating a section by a shifts its
boundary phases by the arguments of exp(conj(a) l - a conj(l)) over the
periods l.  The group algebra

    T_a T_b T_-a T_-b = exp(conj(a) b - a conj(b))

forces a finite-dimensional representation onto that discrete subgroup
(taking determinants gives 1 = exp(2 i N Im(conj(a) b)), impossible for
continuous a, b).

A level matrix projects T_a s_nu onto the sampled level basis by quadrature.
When a is a node of the quadrature grid's own lattice (L1/n)Z + i(L2/n)Z,
for a grid of n x n points, z - a is again a grid point up to whole periods.
That lattice is the Z_N lattice with n in place of N, and one test
(_lattice_steps) classifies a on either.  Every lattice and half-lattice
point is a grid node when n is a multiple of 2N, as the default side is
(default_resolution).  The level is held in the quadrature's weighted frame
e^{-|z|^2/2} s(z) (levels.Quadrature), in which T_a s_nu on the grid is the
held samples of s_nu, index-rolled, times one phase exp(i Im(conj(a) z + E))
shared by the whole level, with E the boundary exponent
(lll_basis._wrap_exponent) of the integer wrap counts (_weighted_factor); no
section is evaluated again.  Any other a samples the level again, in the
same frame, at the grid reduced into the fundamental domain: one stacked
grid pass per derivative order.  Either way the level goes by
Quadrature._block: whole sections, at least an eighth of the level and
lll_basis's block of grid values (all of it on a small grid), each block
projected by one Quadrature.gram product and Quadrature.norms.
translation_matrices projects one sampled level for several displacements,
and translation_matrix is its one-displacement case.
commutator_matrix_residual multiplies four such matrices, of a, b, -a and
-b, and samples nothing itself, so a caller that projects other
displacements of the same level adds the four to the same
translation_matrices call.

The formal infinitesimal generators i z - i(d/dz + dbar) and
-i z - i(d/dz - dbar) are documentation only: they do not map sections to
sections (already d/dz alone breaks the boundary law), which is the
differential-operator face of the same obstruction.  No operation here
constructs them; the finite translations above carry all the content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import NotAPeriod
from .geometry import TorusGeometry, _one_torus
from .levels import (Quadrature, as_section, default_resolution, _sampled_level,
                     _sample_sections)
from .lll_basis import _wrap_exponent, eval_fourier_stack


def _displacement(a) -> complex:
    """a as a complex displacement; ValueError unless it is finite."""
    a = complex(a)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValueError("displacement must be finite")
    return a


def _near_integers(f1: float, f2: float) -> bool:
    """Both within lattice_abs of an integer."""
    tol = tolerances.get("lattice_abs")
    return abs(f1 - round(f1)) <= tol and abs(f2 - round(f2)) <= tol


def _lattice_steps(a: complex, geometry: TorusGeometry, n: int):
    """(m1, m2) with a = (m1 L1 + i m2 L2)/n, or None if a is off that lattice.

    n = N gives the Z_N lattice (lattice_indices); n the side of a square
    quadrature grid gives the grid's own lattice (_project).  Classification
    uses absolute tolerance lattice_abs on the integer residuals; inputs are
    exact rationals of the sides in practice.
    """
    f1 = a.real * n / geometry.L1
    f2 = a.imag * n / geometry.L2
    return (round(f1), round(f2)) if _near_integers(f1, f2) else None


def lattice_indices(a, geometry: TorusGeometry):
    """(n1, n2) with a = (n1 L1 + i n2 L2)/N, or None if a is off-lattice."""
    return _lattice_steps(_displacement(a), geometry, geometry.N)


def reduce_to_fundamental(geometry: TorusGeometry, w):
    """Reduce points into [0,L1) x [0,L2), returning (w0, log of the factor).

    For any section obeying the trivial-phase boundary conditions,
    s(w) = s(w0) * exp(E) with w = w0 + n1 L1 + i n2 L2 and E the
    lll_basis._wrap_exponent of the integer wraps n1, n2.
    """
    w = np.asarray(w, dtype=complex)
    L1, L2 = geometry.L1, geometry.L2
    n1 = np.floor(w.real / L1).astype(int)
    n2 = np.floor(w.imag / L2).astype(int)
    w0 = w - n1 * L1 - 1j * n2 * L2
    return w0, _wrap_exponent(geometry, w0, n1, n2)


def _weighted_factor(a: complex, z, exponent):
    """exp(i Im(conj(a) z + E)): the factor of T_a in the weighted frame.

    With w0 = z - a less whole periods and E their wrap exponent,
    (T_a s)(z) = exp(conj(a) z - |a|^2/2 + E) s(w0), whose factor has the
    modulus e^{(|z|^2 - |w0|^2)/2}.  The frame's e^{-|z|^2/2} and the
    e^{|w0|^2/2} of the weighted sample at w0 cancel it, leaving the phase.
    """
    return np.exp(1j * (np.conj(a) * z + exponent).imag)


def translate_sections(a, sections, z) -> np.ndarray:
    """(T_a s)(z) = exp(conj(a) z - |a|^2/2) s(z - a) for each s of sections.

    Returns shape (len(sections),) + z.shape.  z may be anywhere; z - a is
    brought back into the fundamental domain by the boundary conditions with
    the factor kept in log space.  The sections share one torus: one
    reduction and one factor serve them all, and they are sampled at the
    reduced points in one stacked pass per derivative order.  A section's
    values do not depend on the sections translated with it.
    """
    a = _displacement(a)
    sections = [as_section(s) for s in sections]
    z = np.asarray(z, dtype=complex)
    geometry = _one_torus(sections)
    if geometry is None:
        return np.empty((0,) + z.shape, dtype=complex)
    w0, exponent = reduce_to_fundamental(geometry, z - a)
    factor = np.exp(np.conj(a) * z - abs(a) ** 2 / 2 + exponent)
    out = _sample_sections(sections, w0, lambda psis, k: eval_fourier_stack(psis, w0, k))
    return np.multiply(factor, out, out=out)


def translate_section(a, s, z):
    """(T_a s)(z) at z: the one-section case of translate_sections."""
    return translate_sections(a, [s], z)[0]


@dataclass(frozen=True)
class TranslationMatrix:
    """Matrix of T_a restricted to one Landau level.

    entries[nu, mu] = <s_mu | T_a s_nu> in the orthonormal level basis, so
    T_a s_nu = sum_mu entries[nu, mu] s_mu up to the recorded projection
    defect.  Unitary (defect ~ rounding) exactly when a is on the lattice.
    """

    geometry: TorusGeometry
    a: complex
    level: int
    entries: np.ndarray
    projection_defects: np.ndarray

    @property
    def unitarity_defect(self) -> float:
        t = self.entries
        return float(np.max(np.abs(t.conj().T @ t - np.eye(len(t)))))

    @property
    def max_projection_defect(self) -> float:
        return float(np.max(self.projection_defects))


def translation_matrices(geometry: TorusGeometry, displacements, level: int = 0,
                         side: int | None = None) -> list[TranslationMatrix]:
    """Project T_a onto a Landau level by quadrature, for each a of displacements.

    The level is sampled once on one side x side quadrature grid (side
    defaults to default_resolution) and every matrix is projected from those
    samples.  The projection defect per nu is the quadrature norm
    of the pointwise residual T_a s_nu - sum_mu t_{nu mu} s_mu, which stays
    at rounding level for lattice a and is O(1) at half-lattice
    displacements.
    """
    displacements = [_displacement(a) for a in displacements]
    quad = Quadrature(geometry, side)
    basis, vals = _sampled_level(quad, level)
    return [_project(quad, a, level, basis, vals) for a in displacements]


def translation_matrix(geometry: TorusGeometry, a, level: int = 0,
                       side: int | None = None) -> TranslationMatrix:
    """T_a on a Landau level: the one-displacement case of translation_matrices."""
    return translation_matrices(geometry, [a], level, side)[0]


def _roll_factor(quad: Quadrature, a: complex, m1: int, m2: int) -> np.ndarray:
    """F with (T_a u)(z[j, i]) = F[j, i] u(z[(j - m2) % n, (i - m1) % n]) for
    weighted samples u (levels.Quadrature).

    n is the grid side.  F is the _weighted_factor of E, the boundary
    exponent of the integer wraps i - m1 = i0 + n1 n and j - m2 = j0 + n2 n.
    It holds for every section with trivial boundary phases, so one F serves
    a level.
    """
    n1, i0 = np.divmod(np.arange(quad.side) - m1, quad.side)
    n2, j0 = np.divmod(np.arange(quad.side) - m2, quad.side)
    exponent = _wrap_exponent(quad.geometry, quad.z[np.ix_(j0, i0)],
                              n1[None, :], n2[:, None])
    return _weighted_factor(a, quad.z, exponent)


def _project(quad: Quadrature, a: complex, level: int, basis, vals) -> TranslationMatrix:
    """translation_matrix on a basis already sampled on quad (vals, weighted
    samples), a block of quad._block(n) sections at a time: whole sections,
    at least an eighth of them and lll_basis's block of grid values.  A
    block's T_a s_nu, in the same weighted frame, are its held samples
    index-rolled on the grid lattice, else sampled again by
    levels._sample_sections at the grid reduced once into the fundamental
    domain, from weighted stacks there that are never kept, times one phase;
    quad.gram gives its entries in one product, and quad.norms the defects
    of the residual.
    """
    n = len(basis)
    shift = _lattice_steps(a, quad.geometry, quad.side)
    entries, defects = np.empty((n, n), dtype=complex), np.empty(n)
    if shift is None:
        source, exponent = reduce_to_fundamental(quad.geometry, quad.z - a)
        factor = _weighted_factor(a, quad.z, exponent)
    else:
        factor = _roll_factor(quad, a, *shift)
    step = quad._block(n)
    for start in range(0, n, step):
        block = slice(start, start + step)
        if shift is None:
            shifted = _sample_sections(basis[block], source, lambda psis, k:
                                       eval_fourier_stack(psis, source, k, _weighted=True))
            np.multiply(factor, shifted, out=shifted)
        else:
            shifted = np.roll(vals[block], (shift[1], shift[0]), axis=(1, 2))
            shifted *= factor
        # <s_mu|T_a s_nu> = conj(<T_a s_nu|s_mu>)
        entries[block] = quad.gram(shifted, vals).conj()
        shifted -= np.tensordot(entries[block], vals, axes=1)
        defects[block] = quad.norms(shifted)
    return TranslationMatrix(quad.geometry, a, level, entries, defects)


def commutator_phase(a, b) -> complex:
    """exp(conj(a) b - a conj(b)), the group commutator T_a T_b T_-a T_-b."""
    a = _displacement(a)
    b = _displacement(b)
    return complex(np.exp(np.conj(a) * b - a * np.conj(b)))


def commutator_matrix_residual(t_a: TranslationMatrix, t_b: TranslationMatrix,
                               t_ma: TranslationMatrix, t_mb: TranslationMatrix):
    """Check the commutator phase on the level matrices of T_a, T_b, T_-a, T_-b.

    The four matrices are projections onto one level of one torus, as one
    translation_matrices call gives them: GeometryMismatch for two tori,
    ValueError for two levels, or unless t_ma is at -a and t_mb at -b.
    Multiplies them in the operator order T_a T_b T_-a T_-b (rightmost
    acting first; in the row convention of TranslationMatrix the product is
    t(-b) t(-a) t(b) t(a)) and returns (phase, max |product - phase * I|).
    """
    if t_ma.a != -t_a.a or t_mb.a != -t_b.a:
        raise ValueError("commutator needs the matrices of T_a, T_b, T_-a and T_-b")
    _one_torus((t_a, t_b, t_ma, t_mb))
    if len({t.level for t in (t_a, t_b, t_ma, t_mb)}) != 1:
        raise ValueError("commutator matrices must share one level")
    product = t_mb.entries @ t_ma.entries @ t_b.entries @ t_a.entries
    phase = commutator_phase(t_a.a, t_b.a)
    return phase, float(np.max(np.abs(product - phase * np.eye(len(product)))))


def bundle_shift_phase(a, ell, geometry: TorusGeometry) -> complex:
    """Phase exp(conj(a) l - a conj(l)) by which T_a shifts the boundary data.

    ell must be a true period k1 L1 + i k2 L2; the phase equals 1 for every
    period precisely when a is on the Z_N lattice, since then
    Im(conj(a) l) = (n1 k2 - n2 k1) pi.
    """
    a = _displacement(a)
    ell = complex(ell)
    if not _near_integers(ell.real / geometry.L1, ell.imag / geometry.L2):
        raise NotAPeriod(f"{ell} is not an integer combination of L1 and iL2")
    return complex(np.exp(np.conj(a) * ell - a * np.conj(ell)))


@dataclass(frozen=True)
class WintnerResult:
    """Outcome of the finite-dimensionality consistency check."""

    consistent: bool
    phase: complex


def wintner_check(n_dim: int, a, b) -> WintnerResult:
    """Determinant obstruction for an N-dimensional commutator pair.

    An N x N unitary pair with commutator exp(conj(a) b - a conj(b)) forces
    exp(2 i N Im(conj(a) b)) = 1; returns whether that holds within
    wintner_abs.  Lattice displacements with L1 L2 = N pi satisfy it,
    generic ones do not.
    """
    a = _displacement(a)
    b = _displacement(b)
    phase = complex(np.exp(2j * n_dim * (np.conj(a) * b).imag))
    return WintnerResult(abs(phase - 1.0) <= tolerances.get("wintner_abs"), phase)


def translation_report(geometry: TorusGeometry, a, level: int = 0,
                       side: int | None = None) -> dict:
    """JSON-ready record of the translation diagnostics for one displacement."""
    a = _displacement(a)
    # resolve only the side: translation_matrix builds the one Quadrature
    side = default_resolution(geometry) if side is None else side
    tmat = translation_matrix(geometry, a, level, side)
    indices = lattice_indices(a, geometry)
    dual = 1j * geometry.L2 / geometry.N
    phase_comm = commutator_phase(a, dual)
    shifts = {
        "L1": bundle_shift_phase(a, geometry.L1, geometry),
        "iL2": bundle_shift_phase(a, 1j * geometry.L2, geometry),
    }
    wintner = wintner_check(geometry.N, a, dual)
    return {
        "a": [a.real, a.imag],
        "level": level,
        "grid": [side, side],
        "lattice": indices is not None,
        "lattice_indices": list(indices) if indices is not None else None,
        "unitarity_defect": tmat.unitarity_defect,
        "projection_defect": tmat.max_projection_defect,
        "phases": {
            "commutator_with_iL2_over_N": [phase_comm.real, phase_comm.imag],
            "bundle_shift_L1": [shifts["L1"].real, shifts["L1"].imag],
            "bundle_shift_iL2": [shifts["iL2"].real, shifts["iL2"].imag],
            "wintner": [wintner.phase.real, wintner.phase.imag],
            "wintner_consistent": wintner.consistent,
        },
    }
