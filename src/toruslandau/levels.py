"""Hermitian structure, quadrature, the level ladder, and density maps.

The gauge-invariant density of two sections is
h(s1, s2)(z) = exp(-|z|^2) conj(s1(z)) s2(z); it is doubly periodic for any
pair of sections obeying the twisted periodicity, so the inner product
<s1|s2> = integral of h over the fundamental domain is computed with the
equal-weight periodic trapezoid rule, which converges spectrally here.  A
Quadrature holds that rule on one grid: the points, the weight exp(-|z|^2)
at them and the cell area.

Higher levels are built from the ground states with the covariant creation
operator (d/dz - zbar).  A section is a flat sum of terms

    s(z) = sum weight * conj(z)^p * psi^(k)(z),

each a power p of zbar times the k-th z-derivative of a ground state psi,
on which d/dz, dbar and the creation operator act term by term:
(d/dz - zbar) maps a term (p, psi, k) to (p, psi, k + 1) minus
(p + 1, psi, k), and dbar maps it to p times (p - 1, psi, k).  The
Hamiltonian in units of hbar*omega (zero-point term dropped) is
H = -2 (d/dz - zbar) dbar, so level k has energy 2k.

A level basis is sampled on the quadrature grid once, to normalize it; the
density map and the translation matrices reuse those samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, ZeroNorm
from .geometry import TorusGeometry
from .lll_basis import ThetaBasisFunction, eval_fourier, ground_basis


def default_resolution(geometry: TorusGeometry) -> int:
    """Default quadrature grid side: max(64, 16 N)."""
    return max(64, 16 * geometry.N)


def periodic_grid(geometry: TorusGeometry, nx: int, ny: int):
    """Periodic sample points z[j, i] = i*L1/nx + 1j*j*L2/ny (no endpoint)."""
    x = np.arange(nx) * (geometry.L1 / nx)
    y = np.arange(ny) * (geometry.L2 / ny)
    return x[None, :] + 1j * y[:, None]


class Quadrature:
    """The periodic trapezoid rule with the Hermitian weight on one grid.

    nx defaults to default_resolution(geometry) and ny to nx; both must be
    at least 4.  z is the periodic_grid, weight = exp(-|z|^2) at its points
    and cell the area per point; all are read-only after construction.
    Sample stacks have shape (n, ny, nx).
    """

    def __init__(self, geometry: TorusGeometry, nx: int | None = None,
                 ny: int | None = None):
        nx = default_resolution(geometry) if nx is None else nx
        ny = nx if ny is None else ny
        if nx < 4 or ny < 4:
            raise ValueError("grid resolution must be at least 4")
        self.geometry, self.nx, self.ny = geometry, nx, ny
        self.z = periodic_grid(geometry, nx, ny)
        self.weight = np.exp(-np.abs(self.z) ** 2)
        self.cell = (geometry.L1 / nx) * (geometry.L2 / ny)

    def sample(self, sections) -> np.ndarray:
        """Values of each section at the grid points."""
        out = np.empty((len(sections), self.ny, self.nx), dtype=complex)
        for i, s in enumerate(sections):
            out[i] = as_section(s)(self.z)
        return out

    def gram(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix of inner products <u_i|v_j> of two sample stacks."""
        wu = np.conj(u).reshape(len(u), -1)
        wu *= self.weight.ravel()
        return wu @ v.reshape(len(v), -1).T * self.cell

    def norms(self, values: np.ndarray) -> np.ndarray:
        """Norms sqrt(<v_i|v_i>) of a sample stack."""
        return np.sqrt(np.sum(self.weight * np.abs(values) ** 2, axis=(1, 2))
                       * self.cell)


# ---------------------------------------------------------------------------
# sections: sums of zbar powers times derivatives of ground states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialSection:
    """Section s(z) = sum weight * conj(z)^p * psi^(k)(z) over its terms.

    terms holds (p, psi, k, weight) tuples: p the power of zbar, psi a
    ground-state ThetaBasisFunction, k the order of its z-derivative.  Like
    terms are merged and zero weights dropped at construction, so the empty
    tuple is the zero section.  The degree is the largest p: degree-0
    sections span the holomorphic ground level, and each application of the
    creation operator raises the degree by one.  Immutable; evaluation is
    pure.
    """

    geometry: TorusGeometry
    terms: tuple = ()

    def __post_init__(self):
        merged = {}
        for p, psi, k, w in self.terms:
            merged[p, psi, k] = merged.get((p, psi, k), 0j) + complex(w)
        object.__setattr__(self, "terms", tuple(
            (p, psi, k, w) for (p, psi, k), w in merged.items() if w != 0))

    @property
    def degree(self) -> int:
        return max((p for p, _, _, _ in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, z):
        """Values at z; each distinct (psi, k) is evaluated once."""
        z = np.asarray(z, dtype=complex)
        samples = {}
        acc = np.zeros(z.shape, dtype=complex)
        for p, psi, k, w in self.terms:
            if (psi, k) not in samples:
                samples[psi, k] = eval_fourier(psi, z, k)
            term = w * samples[psi, k]
            acc = acc + (term * np.conj(z) ** p if p else term)
        return acc

    def __add__(self, other: "PolynomialSection") -> "PolynomialSection":
        if other.geometry != self.geometry:
            raise GeometryMismatch("sections live on different tori")
        return PolynomialSection(self.geometry, self.terms + other.terms)

    def __mul__(self, scalar) -> "PolynomialSection":
        c = complex(scalar)
        return PolynomialSection(
            self.geometry, tuple((p, psi, k, w * c) for p, psi, k, w in self.terms))

    __rmul__ = __mul__

    def __sub__(self, other: "PolynomialSection") -> "PolynomialSection":
        return self + other * (-1.0)


def ground_section(psi: ThetaBasisFunction) -> PolynomialSection:
    """psi_nu wrapped as a degree-0 section."""
    return PolynomialSection(psi.geometry, ((0, psi, 0, 1.0),))


def as_section(obj) -> PolynomialSection:
    if isinstance(obj, PolynomialSection):
        return obj
    if isinstance(obj, ThetaBasisFunction):
        return ground_section(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a section")


def raise_section(s: PolynomialSection) -> PolynomialSection:
    """Apply the covariant creation operator (d/dz - zbar).

    Term by term, zbar^p psi^(k) goes to zbar^p psi^(k+1) - zbar^(p+1) psi^(k)
    (d/dz does not see zbar), raising the degree by one; the boundary
    transformation law of the section is preserved.
    """
    s = as_section(s)
    return PolynomialSection(s.geometry, tuple(
        term for p, psi, k, w in s.terms
        for term in ((p, psi, k + 1, w), (p + 1, psi, k, -w))))


def dbar_section(s: PolynomialSection) -> PolynomialSection:
    """Term by term, dbar(zbar^p psi^(k)) = p zbar^(p-1) psi^(k)."""
    s = as_section(s)
    return PolynomialSection(s.geometry, tuple(
        (p - 1, psi, k, p * w) for p, psi, k, w in s.terms if p))


def apply_hamiltonian(s: PolynomialSection) -> PolynomialSection:
    """H s with H = -2 (d/dz - zbar) dbar in units of hbar*omega."""
    return raise_section(dbar_section(as_section(s))) * (-2.0)


# ---------------------------------------------------------------------------
# Hermitian structure and quadrature
# ---------------------------------------------------------------------------

def _check_same_geometry(s1, s2):
    if s1.geometry != s2.geometry:
        raise GeometryMismatch("operands live on different tori")


def hermitian_density(s1, s2, z):
    """Gauge-invariant density h(s1, s2)(z) = e^{-|z|^2} conj(s1(z)) s2(z).

    Doubly periodic and smooth across the seams for any pair of sections
    with matching boundary phases.
    """
    _check_same_geometry(s1, s2)
    z = np.asarray(z, dtype=complex)
    w = np.exp(-np.abs(z) ** 2)
    v1 = as_section(s1)(z)
    v2 = v1 if s1 is s2 else as_section(s2)(z)
    return w * np.conj(v1) * v2


def inner_product(s1, s2, nx: int | None = None, ny: int | None = None) -> complex:
    """<s1|s2> by the periodic trapezoid rule on an nx x ny grid.

    The integrand is smooth and doubly periodic, so doubling the grid
    changes the result only at rounding level once resolved (default grid
    max(64, 16N) is well past that point).
    """
    _check_same_geometry(s1, s2)
    quad = Quadrature(s1.geometry, nx, ny)
    v1 = quad.sample([s1])
    v2 = v1 if s1 is s2 else quad.sample([s2])
    return complex(quad.gram(v1, v2)[0, 0])


def gram_matrix(basis, nx: int | None = None, ny: int | None = None) -> np.ndarray:
    """Pairwise inner products, Hermitized by averaging with the adjoint."""
    if not basis:
        return np.zeros((0, 0), dtype=complex)
    for s in basis[1:]:
        _check_same_geometry(basis[0], s)
    quad = Quadrature(basis[0].geometry, nx, ny)
    vals = quad.sample(basis)
    g = quad.gram(vals, vals)
    return (g + g.conj().T) / 2


def rayleigh_quotient(s, nx: int | None = None, ny: int | None = None) -> float:
    """<s|H|s>/<s|s> through the positive form 2 * integral e^{-|z|^2} |dbar s|^2.

    Zero exactly on the holomorphic ground level; 2k on level k.
    """
    s = as_section(s)
    quad = Quadrature(s.geometry, nx, ny)
    den, num = quad.norms(quad.sample([s, dbar_section(s)])) ** 2
    if not den > 0:
        raise ZeroNorm("section has vanishing quadrature norm")
    return float(2 * num / den)


# ---------------------------------------------------------------------------
# grid fields and density maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Samples of a quantity on the periodic grid.

    values[j, i] is the sample at x = i*L1/nx, y = j*L2/ny (no duplicated
    endpoint); values has shape (ny, nx) and may be real or complex.
    """

    geometry: TorusGeometry
    name: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 4 or v.shape[1] < 4:
            raise ValueError("GridField needs a 2-D array, at least 4x4")
        object.__setattr__(self, "values", v)

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DensityMap:
    """rho and its deviation-from-uniformity diagnostics for one level."""

    rho: GridField
    deviation: GridField          # (rho - mean)/mean
    mean: float
    max_deviation: float          # max |rho - mean|

    @property
    def relative_deviation(self) -> float:
        """d = max_z |rho(z) - mean| / mean, the symmetry-breaking measure."""
        return self.max_deviation / self.mean


def _sampled_level(quad: Quadrature, level: int):
    """Normalized basis of a Landau level (0 or 1) and its samples on quad.

    The samples, shape (N, ny, nx), are taken once and give the norms.
    """
    if level not in (0, 1):
        raise ValueError("only levels 0 and 1 are supported")
    sections = [ground_section(p) for p in ground_basis(quad.geometry)]
    if level == 1:
        sections = [raise_section(s) for s in sections]
    vals = quad.sample(sections)
    scales = 1.0 / quad.norms(vals)
    vals *= scales[:, None, None]
    return [s * c for s, c in zip(sections, scales)], vals


def level_basis(geometry: TorusGeometry, level: int,
                nx: int | None = None, ny: int | None = None) -> list[PolynomialSection]:
    """Quadrature-normalized basis of the requested Landau level (0 or 1)."""
    return _sampled_level(Quadrature(geometry, nx, ny), level)[0]


def density_map(geometry: TorusGeometry, level: int = 0,
                nx: int | None = None, ny: int | None = None) -> DensityMap:
    """rho(z) = sum_nu h(s_nu, s_nu)(z) for the normalized level basis.

    The Hermitian weight is included, making rho a genuine function on the
    torus.  Breaking of continuous translation symmetry shows up as bumps of
    the deviation field on the lattice (n1 L1 + i n2 L2)/N.
    """
    quad = Quadrature(geometry, nx, ny)
    rho = np.zeros(quad.z.shape, dtype=float)
    for v in _sampled_level(quad, level)[1]:
        rho += quad.weight * np.abs(v) ** 2
    mean = float(rho.mean())
    dev = rho / mean - 1.0
    return DensityMap(
        rho=GridField(geometry, f"rho_level{level}", rho),
        deviation=GridField(geometry, f"deviation_level{level}", dev),
        mean=mean,
        max_deviation=float(np.max(np.abs(rho - mean))),
    )


def local_extrema(values: np.ndarray) -> np.ndarray:
    """Boolean mask of periodic local extrema (max or min over 8 neighbours)."""
    v = np.asarray(values)
    is_max = np.ones(v.shape, dtype=bool)
    is_min = np.ones(v.shape, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            nb = np.roll(np.roll(v, dy, axis=0), dx, axis=1)
            is_max &= v >= nb
            is_min &= v <= nb
    return is_max | is_min


def log_linear_fit(ns, ds) -> dict:
    """Least-squares fit log d = slope * N + intercept.

    Returns {"slope", "intercept", "fit_residual"} with fit_residual =
    rms(log d - fit) / rms(log d - mean), the fraction of the variation the
    affine fit fails to explain.  Needs at least two distinct N (ValueError
    otherwise): a line through one point leaves no residual to judge.
    """
    ns = np.asarray(ns, dtype=float)
    if len(set(ns.tolist())) < 2:
        raise ValueError(f"a log-linear fit needs two distinct N, got {ns.tolist()}")
    logd = np.log(np.asarray(ds, dtype=float))
    slope, intercept = np.polyfit(ns, logd, 1)
    resid = logd - (slope * ns + intercept)
    centered = logd - logd.mean()
    r = float(np.sqrt(np.mean(resid**2) / np.mean(centered**2)))
    return {"slope": float(slope), "intercept": float(intercept), "fit_residual": r}


def deviation_decay(geometry_for, levels=(0,), n_values=range(1, 11),
                    nx: int | None = None) -> dict:
    """Table of d(N) per level plus its log_linear_fit (two N at least).

    geometry_for: callable N -> TorusGeometry.  Returns
    {level: {"d": array, "slope": b, "intercept": a, "fit_residual": r}}.
    """
    ns = [int(n) for n in n_values]
    out = {}
    for level in levels:
        ds = np.asarray([density_map(geometry_for(n), level, nx).relative_deviation
                         for n in ns])
        out[level] = {"d": ds, **log_linear_fit(ns, ds)}
    return out
