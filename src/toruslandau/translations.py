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
from .geometry import TorusGeometry
from .levels import (PolynomialSection, Quadrature, apply_hamiltonian,
                     as_section, _sampled_level)
from . import numdiff


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


def lattice_indices(a, geometry: TorusGeometry):
    """(n1, n2) with a = (n1 L1 + i n2 L2)/N, or None if a is off-lattice.

    Classification uses absolute tolerance lattice_abs on the integer
    residuals; inputs are exact rationals of the sides in practice.
    """
    a = _displacement(a)
    f1 = a.real * geometry.N / geometry.L1
    f2 = a.imag * geometry.N / geometry.L2
    return (round(f1), round(f2)) if _near_integers(f1, f2) else None


def is_lattice(a, geometry: TorusGeometry) -> bool:
    return lattice_indices(a, geometry) is not None


def reduce_to_fundamental(geometry: TorusGeometry, w):
    """Reduce points into [0,L1) x [0,L2), returning (w0, log of the factor).

    For any section obeying the trivial-phase boundary conditions,
    s(w) = s(w0) * exp(E) with w = w0 + n1 L1 + i n2 L2 and

        E = (n1 L1 - i n2 L2) w0 + (n1^2 L1^2 + n2^2 L2^2)/2 + i n1 n2 N pi,

    the exponent accumulated by stepping one period at a time (the path
    order is immaterial once L1 L2 = N pi).
    """
    w = np.asarray(w, dtype=complex)
    L1, L2 = geometry.L1, geometry.L2
    n1 = np.floor(w.real / L1).astype(int)
    n2 = np.floor(w.imag / L2).astype(int)
    w0 = w - n1 * L1 - 1j * n2 * L2
    exponent = (n1 * L1 - 1j * n2 * L2) * w0 \
        + (n1**2 * L1**2 + n2**2 * L2**2) / 2 \
        + 1j * (n1 * n2 * geometry.N) * math.pi
    return w0, exponent


def translate_section(a, s, z):
    """(T_a s)(z) = exp(conj(a) z - |a|^2/2) s(z - a), values at z.

    z may be anywhere; z - a is brought back into the fundamental domain by
    the boundary conditions with the factor kept in log space.
    """
    a = _displacement(a)
    s = as_section(s)
    z = np.asarray(z, dtype=complex)
    w0, exponent = reduce_to_fundamental(s.geometry, z - a)
    pref = np.conj(a) * z - abs(a) ** 2 / 2
    return np.exp(pref + exponent) * s(w0)


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
    def is_lattice(self) -> bool:
        return is_lattice(self.a, self.geometry)

    @property
    def unitarity_defect(self) -> float:
        t = self.entries
        return float(np.max(np.abs(t.conj().T @ t - np.eye(len(t)))))

    @property
    def max_projection_defect(self) -> float:
        return float(np.max(self.projection_defects))


def translation_matrix(geometry: TorusGeometry, a, level: int = 0,
                       nx: int | None = None, ny: int | None = None,
                       basis: list[PolynomialSection] | None = None) -> TranslationMatrix:
    """Project T_a onto a Landau level by quadrature.

    The projection defect per nu is the quadrature norm of the pointwise
    residual T_a s_nu - sum_mu t_{nu mu} s_mu, which stays at rounding level
    for lattice a and is O(1) at half-lattice displacements.
    """
    a = _displacement(a)
    quad = Quadrature(geometry, nx, ny)
    if basis is None:
        basis, vals = _sampled_level(quad, level)
    else:
        vals = quad.sample(basis)
    return _project(quad, a, level, basis, vals)


def _project(quad: Quadrature, a: complex, level: int, basis, vals) -> TranslationMatrix:
    """translation_matrix on a basis already sampled on quad (vals)."""
    n = len(basis)
    entries = np.zeros((n, n), dtype=complex)
    defects = np.zeros(n)
    for nu in range(n):
        shifted = translate_section(a, basis[nu], quad.z)[None]
        entries[nu] = quad.gram(vals, shifted)[:, 0]
        defects[nu] = quad.norms(shifted - np.tensordot(entries[nu], vals, axes=1))[0]
    return TranslationMatrix(quad.geometry, a, level, entries, defects)


def commutator_phase(a, b) -> complex:
    """exp(conj(a) b - a conj(b)), the group commutator T_a T_b T_-a T_-b."""
    a = _displacement(a)
    b = _displacement(b)
    return complex(np.exp(np.conj(a) * b - a * np.conj(b)))


def commutator_matrix_residual(geometry: TorusGeometry, a, b, level: int = 0,
                               nx: int | None = None, ny: int | None = None):
    """Check the commutator phase on the level matrices.

    Multiplies the four projected translation matrices in the operator order
    T_a T_b T_-a T_-b (rightmost acting first; in the row convention of
    TranslationMatrix the product is t(-b) t(-a) t(b) t(a)) and returns
    (phase, max |product - phase * I|).
    """
    a = _displacement(a)
    b = _displacement(b)
    quad = Quadrature(geometry, nx, ny)
    basis, vals = _sampled_level(quad, level)
    mats = {c: _project(quad, c, level, basis, vals).entries for c in (a, b, -a, -b)}
    product = mats[-b] @ mats[-a] @ mats[b] @ mats[a]
    phase = commutator_phase(a, b)
    return phase, float(np.max(np.abs(product - phase * np.eye(len(basis)))))


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


def hamiltonian_commutation_residual(geometry: TorusGeometry, a, s,
                                     n_probe: int = 8, h: float = 0.01) -> float:
    """max |H(T_a s) - T_a(H s)| / max |H(T_a s)| on a probe grid.

    H(T_a s) is built from pointwise samples of T_a s with finite
    differences (H = -2 (Lap/4 - zbar dbar)), deliberately independent of
    the termwise section calculus; T_a(H s) reuses the exact calculus.
    The identity holds for any displacement, lattice or not.
    """
    a = _displacement(a)
    s = as_section(s)
    # probe points placed off the grid lines used elsewhere
    xs = (np.arange(n_probe) + 0.37) * geometry.L1 / n_probe
    ys = (np.arange(n_probe) + 0.21) * geometry.L2 / n_probe
    z = xs[None, :] + 1j * ys[:, None]

    def shifted(w):
        return translate_section(a, s, w)

    lap = numdiff.laplacian(shifted, z, h)
    _, dbar = numdiff.wirtinger(shifted, z, h)
    lhs = -2.0 * (lap / 4 - np.conj(z) * dbar)
    rhs = translate_section(a, apply_hamiltonian(s), z)
    # normalize by the section scale too: H annihilates the ground level, so
    # both sides can be zero up to rounding while T_a s itself is O(1)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))),
                float(np.max(np.abs(shifted(z)))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


def translation_report(geometry: TorusGeometry, a, level: int = 0,
                       nx: int | None = None, ny: int | None = None) -> dict:
    """JSON-ready record of the translation diagnostics for one displacement."""
    a = _displacement(a)
    quad = Quadrature(geometry, nx, ny)
    tmat = translation_matrix(geometry, a, level, quad.nx, quad.ny)
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
        "grid": [quad.nx, quad.ny],
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
