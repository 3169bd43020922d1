"""Hermitian structure, quadrature, the level ladder, and density maps.

The gauge-invariant density of two sections is
h(s1, s2)(z) = exp(-|z|^2) conj(s1(z)) s2(z); it is doubly periodic for any
pair of sections obeying the twisted periodicity, so the inner product
<s1|s2> = integral of h over the fundamental domain is computed with the
equal-weight periodic trapezoid rule, which converges spectrally here.  A
Quadrature holds that rule on one square grid of side x side points: the
points and the cell area.  Sections are sampled in one frame only,
e^{-|z|^2/2} s(z), bounded with a doubly periodic modulus on every torus
(where s grows like e^{|z|^2/2}; lll_basis._psi_frame alone undoes it), so
h(s1, s2) is the plain product conj(u1) u2 of samples.  Quadrature's gram,
norms and density integrate every inner product, norm and density of the
package as plain sums times the cell, and its _block is the one rule for
taking a level's samples in blocks.

Higher levels are built from the ground states with the covariant creation
operator (d/dz - zbar).  A section is a flat sum of terms

    s(z) = sum weight * conj(z)^p * psi^(k)(z),

each a power p of zbar times the k-th z-derivative of a ground state psi,
on which d/dz, dbar and the creation operator act term by term:
(d/dz - zbar) maps a term (p, psi, k) to (p, psi, k + 1) minus
(p + 1, psi, k), and dbar maps it to p times (p - 1, psi, k).  The
Hamiltonian in units of hbar*omega (zero-point term dropped) is
H = -2 (d/dz - zbar) dbar, so level k has energy 2k.

One routine samples a list of sections, _sample_sections(sections, z,
stack), from stack(psis, k): the weighted k-th derivatives of the ground
states psis at z, one stacked pass, which Quadrature._stack may keep.
Sections that are each one unit term (0, psi, k, 1) of one order, with no
psi twice, such as a level-0 basis, are that stack itself; any other list
takes one stack per derivative order and adds it into the sections.

A level basis is normalized by the ground states' closed-form unit-norm
constant (lll_basis.normalize), which the creation operator preserves; the
quadrature reproduces that norm to about 1e-14.  The basis is sampled on the
quadrature grid once, one stacked weighted grid pass per derivative order of
its terms, and the density map and the translation matrices reuse those
samples.
rayleigh_quotients likewise samples a list of sections and their dbar images
in one pass per order, and rayleigh_quotient is its one-section case.

Inside a _sharing_stacks block (verify.run_acceptance holds one for the
length of a run) every stack that Quadrature._stack samples on a default
grid, side = default_resolution, is kept, keyed by (ground states,
derivative order, geometry, side).  A later sample of the same key reads
the kept stack instead of taking another grid pass, whether a level-0 basis
or its ground states asked for it.  Kept stacks are weighted samples,
read-only; other grids and scattered points are never kept, the store stops
taking stacks once they would exceed _STACK_BUDGET bytes, and it is dropped
when the block exits.  Outside a block nothing is kept.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ZeroNorm
from .geometry import TorusGeometry, _is_integer, _one_torus
from .lll_basis import (_BLOCK_POINTS, ThetaBasisFunction, _is_grid, _psi_frame,
                        _weighted_stack, normalized_basis)


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


def _check_side(side) -> None:
    """ValueError unless side is None (the default grid) or an integer >= 4."""
    if side is not None and not (_is_integer(side) and side >= 4):
        raise ValueError(f"grid resolution must be an integer >= 4, got {side!r}")


class Quadrature:
    """The periodic trapezoid rule on one grid, in the weighted frame.

    The grid is side x side points, side an integer >= 4 that defaults to
    default_resolution(geometry).  z is the periodic_grid and cell the area
    per point, both read-only; only the methods of Quadrature read cell.
    sample returns weighted samples e^{-|z|^2/2} s(z), stacks of shape
    (n, side, side), so the Hermitian weight e^{-|z|^2} is the product of
    two samples' and no weight array is held: gram, norms and density are
    plain sums times the cell.  The samples are bounded on every torus,
    thin ones and N > 225 included.  _stack takes every grid pass of
    sample, and on the default grid inside a _sharing_stacks block keeps
    its stacks, read-only (module docstring), so a level-0 sample may be a
    kept stack itself.  gram and the translation projection take a level of
    n samples _block(n) at a time: whole samples, at least n // 8 and at
    least _BLOCK_POINTS grid values.
    """

    def __init__(self, geometry: TorusGeometry, side: int | None = None):
        _check_side(side)
        default = default_resolution(geometry)
        side = default if side is None else side
        self.geometry, self.side = geometry, side
        # only a default grid's stacks are kept (_stack)
        self._default = side == default
        self.z = periodic_grid(geometry, side, side)
        self.z.flags.writeable = False
        self.cell = (geometry.L1 / side) * (geometry.L2 / side)

    def _block(self, n: int) -> int:
        """Samples per block of a level of n: the one block rule (class docstring)."""
        return max(n // 8, -(-_BLOCK_POINTS // self.side**2), 1)

    def sample(self, sections) -> np.ndarray:
        """Weighted values e^{-|z|^2/2} s(z) of each section at the grid points,
        from the stacks of _stack.  GeometryMismatch unless every section is
        on this torus."""
        _one_torus(sections, self.geometry)
        return _sample_sections(sections, self.z, self._stack)

    def _stack(self, psis, k: int) -> np.ndarray:
        """Weighted samples e^{-|z|^2/2} psi^(k)(z) of the ground states psis,
        one stacked grid pass.

        Inside a _sharing_stacks block, on the default grid, the stack keyed
        (psis, k, geometry, side) is read back if kept, and kept read-only if
        it fits _STACK_BUDGET.
        """
        store = _STACKS.get() if self._default else None
        key = (tuple(psis), k, self.geometry, self.side)
        stack = None if store is None else store.get(key)
        if stack is None:
            stack = _weighted_stack(psis, self.z, k, grid=True)
            if store is not None and \
                    sum(s.nbytes for s in store.values()) + stack.nbytes <= _STACK_BUDGET:
                stack.flags.writeable = False
                store[key] = stack
        return stack

    def gram(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matrix of inner products <u_i|v_j> of two weighted sample stacks,
        conj(u) @ v times the cell.

        u is conjugated into one reused buffer, _block(len(v)) samples at a
        time, so a block of the level v is one product.
        """
        step = self._block(len(v))
        v = v.reshape(len(v), -1).T
        out = np.empty((len(u), v.shape[1]), dtype=complex)
        buffer = np.empty((min(step, len(u)),) + self.z.shape, dtype=complex)
        for start in range(0, len(u), step):
            cu = np.conjugate(u[start:start + step], out=buffer[:len(u) - start])
            out[start:start + step] = cu.reshape(len(cu), -1) @ v * self.cell
        return out

    def norms(self, values: np.ndarray) -> np.ndarray:
        """Norms sqrt(<v_i|v_i>): each sample's density, summed over the grid."""
        return np.sqrt([np.sum(self.density(v[None])) * self.cell for v in values])

    def density(self, values: np.ndarray) -> np.ndarray:
        """sum_i |v_i|^2 of a weighted sample stack, one sample at a time."""
        rho = np.zeros(self.z.shape)
        for v in values:
            rho += np.abs(v) ** 2
        return rho


# ---------------------------------------------------------------------------
# sections: sums of zbar powers times derivatives of ground states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialSection:
    """Section s(z) = sum weight * conj(z)^p * psi^(k)(z) over its terms.

    terms holds (p, psi, k, weight) tuples: p the power of zbar, psi a
    ground-state ThetaBasisFunction, k the order of its z-derivative.  Like
    terms are merged and zero weights dropped at construction, so the empty
    tuple is the zero section, and each psi must live on the section's torus.
    The degree is the largest p: degree-0 sections span the holomorphic
    ground level, and each application of the creation operator raises the
    degree by one.  Immutable; evaluation is pure.
    """

    geometry: TorusGeometry
    terms: tuple = ()

    def __post_init__(self):
        _one_torus((psi for _, psi, _, _ in self.terms), self.geometry)
        merged = {}
        for p, psi, k, w in self.terms:
            merged[p, psi, k] = merged.get((p, psi, k), 0j) + complex(w)
        object.__setattr__(self, "terms", tuple(
            (p, psi, k, w) for (p, psi, k), w in merged.items() if w != 0))

    @property
    def degree(self) -> int:
        return max((p for p, _, _, _ in self.terms), default=0)

    def __call__(self, z):
        """Values at z: each distinct (psi, k) sampled once, weighted, then _psi_frame."""
        z = np.asarray(z, dtype=complex)
        grid = _is_grid(z)
        return _psi_frame(self.geometry, z, lambda: _sample_sections(
            [self], z, lambda psis, k: _weighted_stack(psis, z, k, grid)), grid)[0]

    def __add__(self, other: "PolynomialSection") -> "PolynomialSection":
        return PolynomialSection(_one_torus((self, other)), self.terms + other.terms)

    def __mul__(self, scalar) -> "PolynomialSection":
        c = complex(scalar)
        return PolynomialSection(
            self.geometry, tuple((p, psi, k, w * c) for p, psi, k, w in self.terms))

    __rmul__ = __mul__

    def __sub__(self, other: "PolynomialSection") -> "PolynomialSection":
        return self + other * (-1.0)


def _sample_sections(sections, z, stack=None) -> np.ndarray:
    """Weighted values e^{-|z|^2/2} s(z) of each section at the points z,
    shape (len(sections),) + z.shape, from stack(psis, k), by default
    lll_basis._weighted_stack: the weighted k-th derivatives of psis at z.

    Sections that are each one unit term (0, psi, k, 1) of one order k, with
    no psi twice, are stack(psis, k) itself.  Otherwise the distinct (psi, k)
    of the sections, all on one torus, are taken one stack per derivative
    order, the highest first (the term order of a raised section), and each
    stack is added into the sections before the next is taken, so a
    section's values do not depend on the sections sampled with it.
    """
    sections = [as_section(s) for s in sections]
    stack = stack or (lambda psis, k: _weighted_stack(psis, z, k))
    units = [s.terms[0] for s in sections if len(s.terms) == 1]
    psis = list(dict.fromkeys(psi for _, psi, _, _ in units))
    forms = {(p, k, w) for p, _, k, w in units}
    if len(psis) == len(sections) and len(forms) == 1:
        p, k, w = forms.pop()
        if p == 0 and w == 1:
            return stack(psis, k)
    out = np.zeros((len(sections),) + z.shape, dtype=complex)
    groups = {}
    for s in sections:
        for _, psi, k, _ in s.terms:
            groups.setdefault(k, {})[psi] = None
    for k in sorted(groups, reverse=True):
        samples = dict(zip(groups[k], stack(list(groups[k]), k)))
        for i, s in enumerate(sections):
            for p, psi, order, w in s.terms:
                if order == k:
                    term = w * samples[psi]
                    np.add(out[i, ...], term * np.conj(z) ** p if p else term, out=out[i, ...])
        del samples, term  # free this stack before the next one is taken
    return out


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

def inner_product(s1, s2) -> complex:
    """<s1|s2> by the periodic trapezoid rule on the default grid.

    The integrand is smooth and doubly periodic, so doubling the grid
    changes the result only at rounding level once resolved (the default
    grid, default_resolution, is well past that point).
    """
    quad = Quadrature(s1.geometry)
    v1 = quad.sample([s1])
    v2 = v1 if s1 is s2 else quad.sample([s2])
    return complex(quad.gram(v1, v2)[0, 0])


def gram_matrix(basis, side: int | None = None) -> np.ndarray:
    """Pairwise inner products, Hermitized by averaging with the adjoint, on a
    side x side grid (default_resolution if None); (0, 0) for an empty basis."""
    if not basis:
        _check_side(side)
        return np.zeros((0, 0), dtype=complex)
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
    if not sections:
        return []
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
    the density map and the translation matrices."""
    basis = level_basis(quad.geometry, level)
    return basis, quad.sample(basis)


def density_map(geometry: TorusGeometry, level: int = 0,
                side: int | None = None) -> DensityMap:
    """rho(z) = sum_nu h(s_nu, s_nu)(z) for the normalized level basis.

    The Hermitian weight is included (rho sums the squared moduli of the
    weighted samples), making rho a genuine function on the torus.
    Breaking of continuous translation symmetry shows up as bumps of the
    deviation field on the lattice (n1 L1 + i n2 L2)/N.  The grid is
    side x side; side defaults to default_resolution, on which lattice
    points and half-lattice midpoints are grid nodes.
    """
    quad = Quadrature(geometry, side)
    rho = quad.density(_sampled_level(quad, level)[1])
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
