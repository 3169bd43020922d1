"""Hermitian structure, quadrature, the level ladder, and density maps.

The gauge-invariant density of two sections is
h(s1, s2)(z) = exp(-|z|^2) conj(s1(z)) s2(z); it is doubly periodic for any
pair of sections obeying the twisted periodicity, so the inner product
<s1|s2> = integral of h over the fundamental domain is computed with the
equal-weight periodic trapezoid rule, which converges spectrally here.  A
Quadrature holds that rule on one square grid of side x side points: the
points, the weight exp(-|z|^2) at them and the cell area.

Higher levels are built from the ground states with the covariant creation
operator (d/dz - zbar).  A section is a flat sum of terms

    s(z) = sum weight * conj(z)^p * psi^(k)(z),

each a power p of zbar times the k-th z-derivative of a ground state psi,
on which d/dz, dbar and the creation operator act term by term:
(d/dz - zbar) maps a term (p, psi, k) to (p, psi, k + 1) minus
(p + 1, psi, k), and dbar maps it to p times (p - 1, psi, k).  The
Hamiltonian in units of hbar*omega (zero-point term dropped) is
H = -2 (d/dz - zbar) dbar, so level k has energy 2k.

A level basis is normalized by the ground states' closed-form unit-norm
constant (lll_basis.normalize), which the creation operator preserves; the
quadrature reproduces that norm to about 1e-14.  The basis is sampled on the
quadrature grid once, one stacked grid pass per derivative order of its
terms, and the density map and the translation matrices reuse those samples.
rayleigh_quotients likewise samples a list of sections and their dbar images
in one pass per order, and rayleigh_quotient is its one-section case.

Inside a _sharing_stacks block (verify.run_acceptance holds one for the
length of a run) every stack sampled on a default quadrature grid, side =
default_resolution, is kept, keyed by (sections, derivative order, geometry,
side): the ground-state stacks of Quadrature.sample and the per-order
stacks of _term_stacks.  A later sample of the same key reads the kept stack
instead of taking another grid pass.  Kept stacks are read-only, other grids
and scattered points are never kept, the store stops taking stacks once they
would exceed _STACK_BUDGET bytes, and it is dropped when the block exits.
Outside a block nothing is kept.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, ZeroNorm
from .geometry import TorusGeometry
from .lll_basis import ThetaBasisFunction, eval_fourier_stack, normalized_basis


# bytes of default-grid sample stacks that one _sharing_stacks block keeps
_STACK_BUDGET = 8 * 2**20

# the open block's {key: read-only stack}, or None outside a block
_STACKS: ContextVar[dict | None] = ContextVar("toruslandau_stacks", default=None)


@contextlib.contextmanager
def _sharing_stacks():
    """Keep the stacks sampled on default grids until the block exits."""
    token = _STACKS.set({})
    try:
        yield
    finally:
        _STACKS.reset(token)


def _kept(grid, psis, order: int, take) -> np.ndarray:
    """take(), the stack of psis's order-th derivatives on a quadrature grid.

    Inside a _sharing_stacks block, on a default grid (grid its (geometry,
    side), else None), the stack is read back if kept, and kept read-only if
    it fits _STACK_BUDGET.
    """
    store = _STACKS.get()
    if store is None or grid is None:
        return take()
    key = (tuple(psis), order) + grid
    stack = store.get(key)
    if stack is None:
        stack = take()
        if sum(s.nbytes for s in store.values()) + stack.nbytes <= _STACK_BUDGET:
            stack.flags.writeable = False
            store[key] = stack
    return stack


def default_resolution(geometry: TorusGeometry) -> int:
    """Default grid side: max(64, 16 N) rounded up to a multiple of 2N, so
    that every lattice point and half-lattice midpoint is a grid node."""
    step = 2 * geometry.N
    return -(-max(64, 16 * geometry.N) // step) * step


def periodic_grid(geometry: TorusGeometry, nx: int, ny: int):
    """Periodic sample points z[j, i] = i*L1/nx + 1j*j*L2/ny (no endpoint)."""
    x = np.arange(nx) * (geometry.L1 / nx)
    y = np.arange(ny) * (geometry.L2 / ny)
    return x[None, :] + 1j * y[:, None]


class Quadrature:
    """The periodic trapezoid rule with the Hermitian weight on one grid.

    The grid is side x side points; side defaults to
    default_resolution(geometry) and must be at least 4.  z is the
    periodic_grid, weight = exp(-|z|^2) at its points and cell the area per
    point; all are read-only after construction.  Sample stacks have shape
    (n, side, side); on the default grid inside a _sharing_stacks block they
    may be kept, read-only, stacks.
    """

    def __init__(self, geometry: TorusGeometry, side: int | None = None):
        default = default_resolution(geometry)
        side = default if side is None else side
        if side < 4:
            raise ValueError("grid resolution must be at least 4")
        self.geometry, self.side = geometry, side
        # the store key of this grid's stacks; only default grids are kept
        self._grid = (geometry, side) if side == default else None
        self.z = periodic_grid(geometry, side, side)
        self.weight = np.exp(-np.abs(self.z) ** 2)
        self.cell = (geometry.L1 / side) * (geometry.L2 / side)

    def sample(self, sections) -> np.ndarray:
        """Values of each section at the grid points.

        Ground states alone (ThetaBasisFunction) are one stacked grid pass,
        and the stack is the result.  Otherwise the distinct (psi, k) of all
        the sections are sampled once, one stacked grid pass per derivative
        order, and each stack is added into the sections before the next is
        taken.
        """
        if all(isinstance(s, ThetaBasisFunction) for s in sections):
            return _kept(self._grid, sections, 0,
                         lambda: eval_fourier_stack(sections, self.z))
        return _sample_sections(sections, self.z, self._grid)

    def gram(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix of inner products <u_i|v_j> of two sample stacks.

        u is conjugated and weighted an eighth of the stack at a time, so the
        temporary stays a fraction of the samples.
        """
        v = v.reshape(len(v), -1).T
        out = np.empty((len(u), v.shape[1]), dtype=complex)
        step = max(1, len(u) // 8)
        for start in range(0, len(u), step):
            wu = np.conj(u[start:start + step]).reshape(-1, v.shape[0])
            wu *= self.weight.ravel()
            out[start:start + step] = wu @ v * self.cell
        return out

    def norms(self, values: np.ndarray) -> np.ndarray:
        """Norms sqrt(<v_i|v_i>) of a sample stack, one sample at a time."""
        return np.sqrt(np.array([np.sum(self.weight * np.abs(v) ** 2) for v in values])
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

    def __call__(self, z):
        """Values at z; each distinct (psi, k) is evaluated once."""
        return _sample_sections([self], np.asarray(z, dtype=complex))[0]

    def _add_terms(self, z, samples, acc):
        """Add into acc, in term order, the terms whose psi^(k) at z is in samples."""
        for p, psi, k, w in self.terms:
            if (psi, k) in samples:
                term = w * samples[psi, k]
                np.add(acc, term * np.conj(z) ** p if p else term, out=acc)
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


def _sample_sections(sections, z, grid=None) -> np.ndarray:
    """Values of each section at the points z, shape (len(sections),) + z.shape.

    The distinct (psi, k) of all the sections are sampled once, one stacked
    pass per derivative order, and each stack is added into the sections
    before the next is taken, so a section's values do not depend on the
    sections sampled with it.  grid is the (geometry, side) of a default
    quadrature grid z, whose stacks may be kept (_kept), or None.
    """
    sections = [as_section(s) for s in sections]
    out = np.zeros((len(sections),) + z.shape, dtype=complex)
    keys = ((psi, k) for s in sections for _, psi, k, _ in s.terms)
    for samples in _term_stacks(keys, z, grid):
        for i, s in enumerate(sections):
            s._add_terms(z, samples, out[i, ...])
        del samples  # free this stack before the next one is taken
    return out


def _term_stacks(keys, z, grid=None):
    """Yield {(psi, k): psi^(k)(z)} for the distinct (psi, k) of keys.

    One dict per geometry and derivative order, the highest order first (the
    term order of a raised section), so the order in which a section's terms
    are added does not depend on the other keys.  Its ground states are
    evaluated as one stack, on a tensor grid one grid pass; on a default
    grid (grid not None) the stack may be kept or read back (_kept).
    """
    groups = {}
    for psi, k in dict.fromkeys(keys):
        groups.setdefault((psi.geometry, k), []).append(psi)
    for (_, k), psis in sorted(groups.items(), key=lambda group: -group[0][1]):
        yield dict(zip(((psi, k) for psi in psis),
                       _kept(grid, psis, k, lambda: eval_fourier_stack(psis, z, k))))


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


# ---------------------------------------------------------------------------
# Hermitian structure and quadrature
# ---------------------------------------------------------------------------

def _check_same_geometry(s1, s2):
    if s1.geometry != s2.geometry:
        raise GeometryMismatch("operands live on different tori")


def inner_product(s1, s2) -> complex:
    """<s1|s2> by the periodic trapezoid rule on the default grid.

    The integrand is smooth and doubly periodic, so doubling the grid
    changes the result only at rounding level once resolved (the default
    grid, default_resolution, is well past that point).
    """
    _check_same_geometry(s1, s2)
    quad = Quadrature(s1.geometry)
    v1 = quad.sample([s1])
    v2 = v1 if s1 is s2 else quad.sample([s2])
    return complex(quad.gram(v1, v2)[0, 0])


def gram_matrix(basis, side: int | None = None) -> np.ndarray:
    """Pairwise inner products on a side x side grid (default_resolution if
    None), Hermitized by averaging with the adjoint."""
    if not basis:
        return np.zeros((0, 0), dtype=complex)
    for s in basis[1:]:
        _check_same_geometry(basis[0], s)
    quad = Quadrature(basis[0].geometry, side)
    vals = quad.sample(basis)
    g = quad.gram(vals, vals)
    return (g + g.conj().T) / 2


def rayleigh_quotients(sections) -> list[float]:
    """<s|H|s>/<s|s> of each section, through the positive form
    2 * integral e^{-|z|^2} |dbar s|^2.

    Zero exactly on the holomorphic ground level; 2k on level k.  The
    sections share one torus; they and their dbar_sections are sampled in
    one quad.sample.  ZeroNorm if any section has a vanishing norm.
    """
    sections = [as_section(s) for s in sections]
    for s in sections[1:]:
        _check_same_geometry(sections[0], s)
    quad = Quadrature(sections[0].geometry)
    norms = quad.norms(quad.sample(sections + [dbar_section(s) for s in sections])) ** 2
    den, num = np.split(norms, 2)
    if not np.all(den > 0):
        raise ZeroNorm("section has vanishing quadrature norm")
    return [float(2 * b / a) for a, b in zip(den, num)]


def rayleigh_quotient(s) -> float:
    """<s|H|s>/<s|s> of one section: the one-section case of rayleigh_quotients."""
    return rayleigh_quotients([s])[0]


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


def level_basis(geometry: TorusGeometry, level: int) -> list[PolynomialSection]:
    """Normalized basis of a Landau level (0 or 1).

    The ground states carry the closed-form unit-norm constant
    (lll_basis.normalize), and the creation operator preserves the norm, so
    neither level is sampled to normalize it.
    """
    if level not in (0, 1):
        raise ValueError("only levels 0 and 1 are supported")
    sections = [ground_section(p) for p in normalized_basis(geometry)]
    return [raise_section(s) for s in sections] if level == 1 else sections


def _sampled_level(quad: Quadrature, level: int):
    """level_basis and its samples on quad, shape (N, side, side), taken once for
    the density map and the translation matrices.  Level 0 is sampled as its
    ground states, one stacked grid pass."""
    basis = level_basis(quad.geometry, level)
    return basis, quad.sample(normalized_basis(quad.geometry) if level == 0 else basis)


def density_map(geometry: TorusGeometry, level: int = 0,
                side: int | None = None) -> DensityMap:
    """rho(z) = sum_nu h(s_nu, s_nu)(z) for the normalized level basis.

    The Hermitian weight is included, making rho a genuine function on the
    torus.  Breaking of continuous translation symmetry shows up as bumps of
    the deviation field on the lattice (n1 L1 + i n2 L2)/N.  The grid is
    side x side; side defaults to default_resolution, on which lattice
    points and half-lattice midpoints are grid nodes.
    """
    quad = Quadrature(geometry, side)
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
