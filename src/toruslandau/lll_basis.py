"""Ground-state (lowest Landau level) basis as theta series.

For a torus with sides L1, L2 and N = L1*L2/pi flux quanta there are N
orthogonal holomorphic ground states.  Two dual series represent each one:

  Fourier:   psi_nu(z) = C * e^{z^2/2} * sum_{n = nu mod N}
                 exp{-pi n^2 L2/(N L1) + 2 pi i n z / L1}

  Gaussian:  psi_nu(z) = C * (sqrt(pi)/L2) e^{-nu^2 L2^2/N^2}
                 * e^{z^2/2 + 2 pi i nu z/L1}
                 * sum_n exp{-(z + n L1/N + i nu L2/N)^2}

The two are related term-for-term by Poisson summation; the explicit leading
constant in the Gaussian form makes them evaluate the *same* function, so the
duality can be tested at the 1e-12 level.  Both satisfy the twisted
periodicity (with boundary phases delta1 = delta2 = 0)

  psi(z + L1)   = psi(z) * exp{L1 z + L1^2/2 + i delta1}
  psi(z + i L2) = psi(z) * exp{-i L2 z + L2^2/2 + i delta2}.

Exponents are assembled in extended precision, phases are reduced mod 2pi
and the peak is factored out before exponentiating in double precision.
This avoids overflow of e^{z^2/2} against the theta tail and keeps relative
rounding near machine level even where exponent pieces reach several
hundred.  The Fourier series has two paths:

  grid       z[j, i] = x[i] + i y[j] (any 2-D array whose real part is the
             same down each column and imaginary part the same along each
             row).  Term n splits into a factor of (y, n), a factor of
             (n, x) and the phase e^{i x y} of e^{z^2/2}, so a section is
             one (rows x K) @ (K x columns) matrix product times that
             phase, formed a block of rows at a time, with each row's peak
             factored out.
  pointwise  any other z: every term's full exponent per point, with each
             point's own peak factored out.

eval_fourier is the one evaluator of the package: every section of the
levels module, and every z-derivative (its `order` argument), is sampled
through it.  eval_gaussian, always pointwise, is the independent reference
that the tests and the Poisson-duality check compare it with.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import IndexMismatch, ZeroNorm
from .geometry import TorusGeometry

_LD = np.longdouble
_TWO_PI = 2 * np.pi

# Tail threshold: dropped terms are smaller than e^-40 ~ 4e-18 relative to
# the largest kept term anywhere in the evaluation domain.
_TAIL_MARGIN = 40.0

# The grid path works on blocks of about this many points, so its
# long-double temporaries stay a few MB whatever the grid size.
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class BoundaryPhases:
    """Boundary phases (delta1, delta2) of the twisted periodicity, mod 2pi."""

    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta1", float(self.delta1) % _TWO_PI)
        object.__setattr__(self, "delta2", float(self.delta2) % _TWO_PI)

    @property
    def is_trivial(self) -> bool:
        return self.delta1 == 0.0 and self.delta2 == 0.0


TRIVIAL_PHASES = BoundaryPhases(0.0, 0.0)


def fourier_cutoff(geometry: TorusGeometry, y_extent: float) -> int:
    """Smallest Fourier cutoff that keeps the truncation error below e^-40.

    The real exponent of term n is -a n^2 + (linear in n*y) with
    a = pi L2/(N L1); the cutoff solves
        a n^2 - 2 pi y_extent n / L1 - a N^2/4 > 40,
    where the a N^2/4 offset guards residue classes near N/2 whose largest
    kept term is itself suppressed.
    """
    L1, L2, n = geometry.L1, geometry.L2, geometry.N
    a = math.pi * L2 / (n * L1)
    b = _TWO_PI * y_extent / L1
    c = a * n * n / 4 + _TAIL_MARGIN
    return int(math.ceil((b + math.sqrt(b * b + 4 * a * c)) / (2 * a)))


def gaussian_cutoff(geometry: TorusGeometry, x_extent: float) -> int:
    """Window half-width for the Gaussian representation at |Re z| <= x_extent.

    The imaginary parts are common to every term, so the tail is governed by
    exp(-(x + n L1/N)^2) alone: the window reaches sqrt(40) past the comb
    point nearest -x (plus one comb spacing of slack).
    """
    n = geometry.N
    reach = x_extent + math.sqrt(_TAIL_MARGIN) + geometry.L1 / n
    return int(math.ceil(n * reach / geometry.L1)) + 1


@dataclass(frozen=True)
class ThetaBasisFunction:
    """One ground-state section psi_nu, with truncation and norm metadata.

    Fields:
        geometry: the torus
        nu: residue class in [0, N)
        n_max: Fourier cutoff for the default evaluation domain (the
            fundamental rectangle padded by one period each way); evaluation
            at points outside that domain widens the window automatically
        norm_const: overall constant, 1.0 until normalize() fixes it

    Instances are immutable; evaluation is pure and safe to share across
    threads.
    """

    geometry: TorusGeometry
    nu: int
    n_max: int
    norm_const: float = 1.0

    def __post_init__(self):
        if not 0 <= self.nu < self.geometry.N:
            raise ValueError(f"nu={self.nu} outside [0, {self.geometry.N})")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        if not self.norm_const > 0:
            raise ValueError("norm_const must be positive")

    def __call__(self, z):
        return eval_fourier(self, z)


def theta_basis(geometry: TorusGeometry, nu: int) -> ThetaBasisFunction:
    """Construct psi_nu with the cutoff sized for the padded fundamental domain."""
    return ThetaBasisFunction(geometry, nu, fourier_cutoff(geometry, 2 * geometry.L2))


def ground_basis(geometry: TorusGeometry) -> list[ThetaBasisFunction]:
    """All N ground-state sections (unnormalized), nu = 0..N-1."""
    return [theta_basis(geometry, nu) for nu in range(geometry.N)]


def _prefactor_coeffs(order: int, slope: float) -> list[float]:
    """Coefficients of the polynomial q_m(v) with d^m e^E = q_m(E') e^E.

    Built from q_{m+1} = v q_m + slope * q_m' where slope = dv/dz is the
    (constant) second derivative of the exponent.
    """
    coeffs = [1.0]
    for _ in range(order):
        nxt = [0.0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            if k >= 1:
                nxt[k - 1] += slope * k * c
        coeffs = nxt
    return coeffs


def _peak_split_sum(re, ph, poly=None):
    """sum_n poly(v_n) exp(re_n + i ph_n) with the peak factored out.

    re, ph are long-double arrays of shape (..., K); the peak of re is
    removed before exponentiating in double precision so the result is
    finite whenever the true value fits in a double.
    """
    m = re.max(axis=-1, keepdims=True)
    ph = np.mod(ph, _LD(_TWO_PI))
    terms = np.exp(np.asarray(re - m, dtype=float) + 1j * np.asarray(ph, dtype=float))
    if poly is not None:
        terms = poly * terms
    return np.exp(np.asarray(m[..., 0], dtype=float)) * terms.sum(axis=-1)


def _eval_poly(coeffs, v):
    acc = np.zeros_like(v)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _fourier_indices(psi: ThetaBasisFunction, y) -> np.ndarray:
    """Indices n = nu (mod N) of the Fourier terms kept for points with Im z in y."""
    geo = psi.geometry
    y_extent = max(float(np.max(np.abs(y))), 2 * geo.L2)
    cutoff = max(psi.n_max, fourier_cutoff(geo, y_extent))
    ns = np.arange(-cutoff, cutoff + 1)
    return ns[(ns - psi.nu) % geo.N == 0]


def _is_grid(arr) -> bool:
    """True when arr[j, i] = x[i] + 1j*y[j] exactly (tensor-product points)."""
    return (arr.ndim == 2 and arr.size > 0
            and np.array_equal(arr.real, np.broadcast_to(arr.real[:1], arr.shape))
            and np.array_equal(arr.imag, np.broadcast_to(arr.imag[:, :1], arr.shape)))


def _fourier_grid(psi: ThetaBasisFunction, z, order: int):
    """eval_fourier on a tensor grid z[j, i] = x[i] + 1j*y[j].

    With e^{z^2/2} = e^{x^2/2} e^{-y^2/2} e^{i x y}, the term for index n is
        [exp{-pi n^2 L2/(N L1) - 2 pi n y/L1 - y^2/2}]     row (y, n)
      * [exp{x^2/2 + 2 pi i n x/L1}]                       column (n, x)
      * exp{i x y},
    so the sum over n is a (rows x K) @ (K x nx) product times a pointwise
    phase.  Exponents are assembled in long double; each row's peak is
    factored out of the row factor, and phases are reduced mod 2pi, before
    the cast to double.  A derivative carries the factor q(z + b_n) with
    b_n = 2 pi i n/L1 (see _prefactor_coeffs); expanding it as
    sum_j q^(j)(z)/j! b_n^j costs one more product per power of b_n.
    """
    geo = psi.geometry
    L1, L2, n_flux = geo.L1, geo.L2, geo.N
    ny, nx = z.shape
    ys = z[:, 0].imag
    ns = _fourier_indices(psi, ys)
    nl = ns.astype(_LD)
    L1l, L2l, pil, two_pi = _LD(L1), _LD(L2), _LD(np.pi), _LD(_TWO_PI)

    x = z[0].real.astype(_LD)
    col_phase = np.mod(two_pi * nl[:, None] * x / L1l, two_pi)
    col = np.asarray(np.exp(x * x / 2), dtype=float) \
        * np.exp(1j * np.asarray(col_phase, dtype=float))
    col = col.view(float)            # (K, 2 nx): real and imaginary parts
    quad = -pil * nl * nl * L2l / (n_flux * L1l)

    q = _prefactor_coeffs(order, 1.0)
    taylor = [[math.comb(p, j) * q[p] for p in range(j, len(q))]
              for j in range(len(q))]
    b = _TWO_PI * ns / L1            # b_n / i

    out = np.empty(z.shape, dtype=complex)
    step = max(1, _BLOCK_POINTS // nx)
    for start in range(0, ny, step):
        rows = slice(start, start + step)
        y = ys[rows].astype(_LD)[:, None]
        re = quad - two_pi * nl * y / L1l
        peak = re.max(axis=1, keepdims=True)
        row = np.exp(np.asarray(re - peak, dtype=float))
        sums = 0
        for j, coeffs in enumerate(taylor):
            s = ((row * b**j) @ col).view(complex)
            weight = coeffs[0] if len(coeffs) == 1 else _eval_poly(coeffs, z[rows])
            sums = sums + (weight * 1j**j) * s
        scale = psi.norm_const * np.asarray(np.exp(peak - y * y / 2), dtype=float)
        gauge = np.exp(1j * np.asarray(np.mod(x * y, two_pi), dtype=float))
        out[rows] = scale * gauge * sums
    return out


def eval_fourier(psi: ThetaBasisFunction, z, order: int = 0):
    """Evaluate d^order/dz^order of psi at z through the Fourier series.

    z may be a complex scalar or array; the function is entire, so any
    finite z is accepted (the term window adapts to Im z).  Truncation keeps
    the largest dropped term below 1e-16 of the largest kept one.  A 2-D
    tensor grid takes the matrix-product path (_fourier_grid); any other z
    is evaluated point by point.
    """
    geo = psi.geometry
    L1, L2, n_flux = geo.L1, geo.L2, geo.N
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation point must be finite")
    if _is_grid(arr):
        return _fourier_grid(psi, arr, order)

    ns = _fourier_indices(psi, arr.imag)

    x = arr.real.astype(_LD)[..., None]
    y = arr.imag.astype(_LD)[..., None]
    nl = ns.astype(_LD)
    L1l, L2l, pil = _LD(L1), _LD(L2), _LD(np.pi)

    # exponent E_n = z^2/2 - pi n^2 L2/(N L1) + 2 pi i n z / L1
    re = (x * x - y * y) / 2 - pil * nl * nl * L2l / (n_flux * L1l) \
        - _LD(_TWO_PI) * nl * y / L1l
    ph = x * y + _LD(_TWO_PI) * nl * x / L1l

    poly = None
    if order > 0:
        w = arr[..., None] + 2j * np.pi * ns / L1   # dE/dz per term
        poly = _eval_poly(_prefactor_coeffs(order, 1.0), w)

    out = psi.norm_const * _peak_split_sum(re, ph, poly)
    return complex(out[0]) if scalar else out.reshape(np.shape(z))


def eval_gaussian(psi: ThetaBasisFunction, z, order: int = 0):
    """Evaluate d^order/dz^order of psi at z through the Gaussian series.

    Includes the Poisson conversion constant sqrt(pi)/L2 * e^{-nu^2 L2^2/N^2}
    so the result matches eval_fourier identically (up to rounding), with an
    independently truncated Gaussian tail below 1e-16 relative.
    """
    geo = psi.geometry
    L1, L2, n_flux = geo.L1, geo.L2, geo.N
    nu = psi.nu
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation point must be finite")

    x_extent = max(float(np.max(np.abs(arr.real))), L1)
    w = gaussian_cutoff(geo, x_extent)
    ns = np.arange(-w, w + 1)

    x = arr.real.astype(_LD)[..., None]
    y = arr.imag.astype(_LD)[..., None]
    nl = ns.astype(_LD)
    L1l, L2l, pil = _LD(L1), _LD(L2), _LD(np.pi)
    nul, nf = _LD(nu), _LD(n_flux)

    ln_const = np.log(pil) / 2 - np.log(L2l) - nul * nul * L2l * L2l / (nf * nf)
    u = x + nl * L1l / nf          # Re of the shifted argument
    v = y + nul * L2l / nf         # Im of the shifted argument

    # exponent: z^2/2 + 2 pi i nu z/L1 + ln_const - (u + i v)^2
    re = (x * x - y * y) / 2 - _LD(_TWO_PI) * nul * y / L1l + ln_const - (u * u - v * v)
    ph = x * y + _LD(_TWO_PI) * nul * x / L1l - 2 * u * v

    poly = None
    if order > 0:
        # dE/dz = z + 2 pi i nu/L1 - 2(z + n L1/N + i nu L2/N); slope -1
        dEdz = -arr[..., None] + 2j * np.pi * nu / L1 \
            - 2 * (ns * L1 / n_flux + 1j * nu * L2 / n_flux)
        poly = _eval_poly(_prefactor_coeffs(order, -1.0), dEdz)

    out = psi.norm_const * _peak_split_sum(re, ph, poly)
    return complex(out[0]) if scalar else out.reshape(np.shape(z))


def boundary_factors(geometry: TorusGeometry, z, phases: BoundaryPhases = TRIVIAL_PHASES):
    """The two twisted-periodicity factors at z.

    Returns (F1, F2) with  psi(z + L1) = psi(z) F1  and
    psi(z + i L2) = psi(z) F2  for a section with the given phases.
    """
    z = np.asarray(z, dtype=complex)
    L1, L2 = geometry.L1, geometry.L2
    f1 = np.exp(L1 * z + L1 * L1 / 2 + 1j * phases.delta1)
    f2 = np.exp(-1j * L2 * z + L2 * L2 / 2 + 1j * phases.delta2)
    return f1, f2


def boundary_residual(section, z, phases: BoundaryPhases = TRIVIAL_PHASES):
    """Residuals of the twisted periodicity conditions at z.

    Returns (r1, r2) with r1 = s(z+L1) - s(z)*F1 and r2 = s(z+iL2) - s(z)*F2.
    Both vanish (to truncation rounding) for the constructed basis with
    trivial phases; `section` is anything callable with a .geometry.
    """
    z = np.asarray(z, dtype=complex)
    geo = section.geometry
    f1, f2 = boundary_factors(geo, z, phases)
    base = section(z)
    r1 = section(z + geo.L1) - base * f1
    r2 = section(z + 1j * geo.L2) - base * f2
    return r1, r2


def double_shift_factors(geometry: TorusGeometry, z,
                         phases: BoundaryPhases = TRIVIAL_PHASES):
    """Factors relating psi(z + L1 + i L2) to psi(z) along the two edge orders.

    Returns (via_x_then_y, via_y_then_x, symmetric) where `symmetric` is
    exp{(L1 - i L2) z + |L1 + i L2|^2 / 2 + i(delta1+delta2)}.  Each path
    equals symmetric times exp(-+ i L1 L2); consistency of the two paths is
    exp(2 i L1 L2) = 1, which forces L1 L2 = N pi, and the per-path factor
    relative to symmetric is exp(-+ i N pi) = (-1)^N.
    """
    z = np.asarray(z, dtype=complex)[()]
    L1, L2 = geometry.L1, geometry.L2
    dsum = phases.delta1 + phases.delta2
    e_sym = (L1 - 1j * L2) * z + abs(L1 + 1j * L2) ** 2 / 2 + 1j * dsum
    via_xy = np.exp(e_sym - 1j * L1 * L2)
    via_yx = np.exp(e_sym + 1j * L1 * L2)
    return via_xy, via_yx, np.exp(e_sym)


def verify_recurrence(geometry: TorusGeometry, nu: int, n: int) -> bool:
    """Check the closed-form Fourier coefficients against their recurrence.

    The coefficients c_n = exp{-pi n^2 L2/(N L1)} must satisfy
    c_n = c_{n-N} * exp{-2 n pi L2/L1 + 2 N pi L2/L1 - L2^2}; returns True
    when the log-space identity holds within recurrence_rel, relative.
    """
    L1, L2, n_flux = geometry.L1, geometry.L2, geometry.N
    if (n - nu) % n_flux != 0:
        raise IndexMismatch(f"n={n} is not congruent to nu={nu} mod {n_flux}")
    lhs = -math.pi * n * n * L2 / (n_flux * L1)
    rhs = -math.pi * (n - n_flux) ** 2 * L2 / (n_flux * L1) \
        - 2 * n * math.pi * L2 / L1 + 2 * n_flux * math.pi * L2 / L1 - L2 * L2
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= tolerances.get("recurrence_rel") * scale


def normalize(psi: ThetaBasisFunction, nx: int | None = None,
              ny: int | None = None) -> ThetaBasisFunction:
    """Copy of psi with norm_const fixed so the quadrature norm is 1."""
    from .levels import inner_product  # deferred: levels builds on this module

    ip = inner_product(psi, psi, nx, ny)
    scale = math.sqrt(float(np.real(ip)))
    if not scale > 0:
        raise ZeroNorm("cannot normalize a section with vanishing norm")
    return dataclasses.replace(psi, norm_const=psi.norm_const / scale)


def normalized_basis(geometry: TorusGeometry, nx: int | None = None,
                     ny: int | None = None) -> list[ThetaBasisFunction]:
    """The N ground states, each normalized by quadrature."""
    return [normalize(psi, nx, ny) for psi in ground_basis(geometry)]
