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

Exponents and phases are assembled in long double, which avoids overflow
of e^{z^2/2} against the theta tail and keeps relative rounding near
machine level where exponent pieces reach several hundred; the Fourier
series casts them to double at _exp_ld and _cis_ld only, the latter
reducing mod _TWO_PI, the package's one 2pi.  Both series reject a torus
whose sections overflow a double on its cell (_check_torus).  The Fourier
series factors out its peak term before it sums in double; both of its
paths keep the same terms about each point's peak (_fourier_reach), and
each takes a stack of sections of one torus in one pass, bit for bit the
one-section calls.  The grid path can instead return the weighted values
e^{-|z|^2/2} psi^(k)(z), the frame in which levels.Quadrature integrates:
bounded, with a doubly periodic modulus, so that frame checks no torus.

  grid       z[j, i] = x[i] + i y[j] (any 2-D array whose real part is the
             same down each column and imaginary part the same along each
             row).  Term n splits into a factor of (y, n), a factor of
             (n, x) and the phase e^{i x y} of e^{z^2/2}, so a section is
             one (rows x K) @ (K x columns) matrix product times that
             phase, formed a block of rows at a time, with each row's peak
             factored out.
  pointwise  any other z: per point, a Laurent polynomial in
             w = e^{2 pi i N z/L1} times e^{-2 a N n0} (a = pi L2/(N L1)),
             with coefficients e^{-L2^2 m^2} shared by every point and no
             term above the centre one, summed by Horner's rule in complex
             double (see _fourier_points).  It shares no loop with the
             Gaussian comb, which checks it.

eval_fourier_stack is the one evaluator of the package, and eval_fourier
its one-section case: every section of the levels module, and every
z-derivative (the `order` argument), is sampled through it.
eval_gaussian_stack, with eval_gaussian its one-section case, is the
independent reference that the tests and the Poisson-duality check compare
it with.  It sums every section of one torus in one pointwise pass: per
point a Laurent polynomial in w = e^{-2 h (t + i v)} about the comb's
nearest term, with coefficients e^{-m^2 h^2} shared by every point and
section, summed by Horner's rule in complex long double (see
eval_gaussian_stack).  The comb can be e^{L2^2/4} smaller than its terms,
so its long-double rounding, not its window, sets its accuracy at large N.

duality_residuals and boundary_residuals are the one measure each of the
two representations' disagreement and of the twisted periodicity:
acceptance criteria 3 and 4 and the `basis` command all report these
values.  Each takes a whole basis, duality_residuals in one stacked pass of
each series, boundary_residuals in one per shifted point set.

normalize and normalized_basis set the closed-form unit-norm constant
(_unit_norm_const), (L1 sqrt(pi/2))^(-1/2) on every flux-quantized torus;
no section is sampled to normalize it.
"""

from __future__ import annotations

import dataclasses
import decimal
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import TorusGeometry, _is_integer, _one_torus

_LD = np.longdouble
_TWO_PI = 2 * np.pi

# Tail threshold: dropped terms are smaller than e^-40 ~ 4e-18 relative to
# the largest kept term at the same point.
_TAIL_MARGIN = 40.0

# ln of the largest double, the bound on (L1^2 + L2^2)/2 (_check_torus)
_LN_MAX_DOUBLE = math.log(np.finfo(float).max)

# The grid path works on blocks of about this many points, and the pointwise
# paths on blocks of about this many (point, term) pairs, so their
# long-double temporaries stay a few MB whatever the number of points.
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class BoundaryPhases:
    """Boundary phases (delta1, delta2) of the twisted periodicity, mod 2pi."""

    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta1", float(self.delta1) % _TWO_PI)
        object.__setattr__(self, "delta2", float(self.delta2) % _TWO_PI)


TRIVIAL_PHASES = BoundaryPhases(0.0, 0.0)


@dataclass(frozen=True)
class ThetaBasisFunction:
    """One ground-state section psi_nu, with truncation and norm metadata.

    Fields:
        geometry: the torus
        nu: residue class, an integer in [0, N), stored as an int
        norm_const: overall constant, 1.0 until normalize() sets the
            closed-form unit-norm value

    The Fourier window is sized at evaluation by one rule on both paths:
    the terms within M classes (_fourier_reach) of the one nearest each
    point's peak term, about each scattered point or over a grid's rows.

    Instances are immutable; evaluation is pure and safe to share across
    threads.
    """

    geometry: TorusGeometry
    nu: int
    norm_const: float = 1.0

    def __post_init__(self):
        if not (_is_integer(self.nu) and 0 <= self.nu < self.geometry.N):
            raise ValueError(f"nu={self.nu!r} must be an integer in [0, {self.geometry.N})")
        object.__setattr__(self, "nu", int(self.nu))
        if not self.norm_const > 0:
            raise ValueError("norm_const must be positive")

    def __call__(self, z):
        return eval_fourier(self, z)


def theta_basis(geometry: TorusGeometry, nu: int) -> ThetaBasisFunction:
    """Construct psi_nu (unnormalized)."""
    return ThetaBasisFunction(geometry, nu)


def ground_basis(geometry: TorusGeometry) -> list[ThetaBasisFunction]:
    """All N ground-state sections (unnormalized), nu = 0..N-1."""
    return [theta_basis(geometry, nu) for nu in range(geometry.N)]


def _taylor_rows(order: int, slope: float) -> list[list[float]]:
    """Taylor rows of the polynomial q(v) with d^order e^E = q(E') e^E: row j
    holds the coefficients of q^(j)(v)/j!, so q(v + b) = sum_j b^j row_j(v).

    q is built from q_{m+1} = v q_m + slope * q_m' where slope = dv/dz is the
    (constant) second derivative of the exponent.
    """
    q = [1.0]
    for _ in range(order):
        nxt = [0.0] * (len(q) + 1)
        for k, c in enumerate(q):
            nxt[k + 1] += c
            if k >= 1:
                nxt[k - 1] += slope * k * c
        q = nxt
    return [[math.comb(p, j) * q[p] for p in range(j, len(q))] for j in range(len(q))]


def _eval_poly(coeffs, v):
    acc = np.zeros_like(v)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _check_torus(geometry: TorusGeometry) -> None:
    """ValueError naming L1 and L2 when (L1^2 + L2^2)/2 >= ln(max double):
    |psi| ~ e^{|z|^2/2} then overflows a double on the section's own cell."""
    L1, L2 = geometry.L1, geometry.L2
    if not (L1 * L1 + L2 * L2) / 2 < _LN_MAX_DOUBLE:
        raise ValueError(f"the sections of the torus L1={L1!r}, L2={L2!r} overflow a double "
                         f"on its cell: (L1^2 + L2^2)/2 must be below {_LN_MAX_DOUBLE:.2f}")


def _fourier_reach(geometry: TorusGeometry) -> int:
    """M of the Fourier window: about the index n0 = nu (mod N) nearest a
    point's peak term n*, the terms n0 + N m, |m| <= M, keep all above e^-40
    of it, since term n0 + N m is at most e^{-L2^2 (m^2 - |m|)} of term n0
    (|n0 - n*| <= N/2; see _fourier_points).  The same in either frame.
    ValueError naming L2 if its 2M + 1 terms exceed _BLOCK_POINTS (L2 < ~1.9e-4).
    """
    L2 = geometry.L2
    half = 0.5 + math.sqrt(0.25 + (_TAIL_MARGIN / L2 ** 2 if L2 ** 2 else math.inf))
    if not half <= _BLOCK_POINTS // 2 - 2:   # 2M + 1 = 2 ceil(half) + 3; False for inf
        raise ValueError(f"the Fourier window of the torus with L2={L2!r} exceeds "
                         f"{_BLOCK_POINTS} terms: L2 is too small")
    return int(math.ceil(half)) + 1


def _peak_class(psi: ThetaBasisFunction, y) -> np.ndarray:
    """k of the index nu + N k nearest the peak term n* = -N y/L2, for each y;
    picked in double, as either way a tie goes no term exceeds that one."""
    return np.rint(-y / psi.geometry.L2 - psi.nu / psi.geometry.N)


def _fourier_indices(psi: ThetaBasisFunction, y, reach: int) -> np.ndarray:
    """Indices nu + N k, k_lo - M <= k <= k_hi + M, of the Fourier terms kept
    for points with Im z in y, where k_lo and k_hi bound their peak classes
    (_peak_class) and M = reach."""
    k = _peak_class(psi, y)
    return psi.nu + psi.geometry.N * np.arange(int(k.min()) - reach, int(k.max()) + reach + 1)


def _is_grid(arr) -> bool:
    """True when arr[j, i] = x[i] + 1j*y[j] exactly (tensor-product points)."""
    return (arr.ndim == 2 and arr.size > 0
            and np.array_equal(arr.real, np.broadcast_to(arr.real[:1], arr.shape))
            and np.array_equal(arr.imag, np.broadcast_to(arr.imag[:, :1], arr.shape)))


def _fourier_grid(psis, z, order: int, weighted: bool):
    """d^order psi on a tensor grid z[j, i] = x[i] + 1j*y[j], for each psi of psis,
    times e^{-|z|^2/2} if weighted.

    The sections share one geometry.  With e^{z^2/2} = e^{x^2/2} e^{-y^2/2}
    e^{i x y}, the term for index n is
        [exp{-pi n^2 L2/(N L1) - 2 pi n y/L1 - y^2/2}]     row (y, n)
      * [exp{x^2/2 + 2 pi i n x/L1}]                       column (n, x)
      * exp{i x y},
    so each sum over n is a (rows x K) @ (K x nx) product times a pointwise
    phase.  The weight e^{-|z|^2/2} drops the column's e^{x^2/2} and turns
    the row's e^{-y^2/2} into e^{-y^2}, so that no factor grows with |z|:
    each row is scaled by exp(peak - y^2) in place of exp(peak - y^2/2).
    Exponents and phases are assembled in long double, each row's peak
    factored out of its row factor, and cast by _exp_ld and _cis_ld.  A
    derivative carries the factor q(z + b_n) with
    b_n = 2 pi i n/L1 (see _taylor_rows); expanding it as
    sum_j q^(j)(z)/j! b_n^j costs one more product per power of b_n.

    The column factors of every index in the sections' windows are built
    once, and the phase e^{i x y} and the Taylor weights q^(j)(z)/j! once
    per block of rows, all shared by the stack; each section keeps its own
    row peaks, so its samples are bit-identical to those of a one-section
    call.  Returns an array of shape (len(psis), ny, nx).
    """
    geo = psis[0].geometry
    L1, L2, n_flux = geo.L1, geo.L2, geo.N
    ny, nx = z.shape
    ys = z[:, 0].imag
    reach = _fourier_reach(geo)
    windows = [_fourier_indices(psi, ys, reach) for psi in psis]
    every = np.array(sorted(set(np.concatenate(windows).tolist())))
    picks = [np.searchsorted(every, ns) for ns in windows]
    nl = every.astype(_LD)
    L1l, L2l, pil, two_pi = _LD(L1), _LD(L2), _LD(np.pi), _LD(_TWO_PI)

    x = z[0].real.astype(_LD)
    col = _cis_ld(two_pi * nl[:, None] * x / L1l)
    if not weighted:
        col = _exp_ld(x * x / 2) * col
    col = col.view(float)            # (K, 2 nx): real and imaginary parts
    cols = [col[pick] for pick in picks]
    quad = -pil * nl * nl * L2l / (n_flux * L1l)

    taylor = _taylor_rows(order, 1.0)
    b = _TWO_PI * every / L1         # b_n / i

    out = np.empty((len(psis), ny, nx), dtype=complex)
    step = max(1, _BLOCK_POINTS // nx)
    for start in range(0, ny, step):
        rows = slice(start, start + step)
        y = ys[rows].astype(_LD)[:, None]
        re = quad - two_pi * nl * y / L1l
        row_y2 = y * y if weighted else y * y / 2
        weights = [(coeffs[0] if len(coeffs) == 1 else _eval_poly(coeffs, z[rows])) * 1j**j
                   for j, coeffs in enumerate(taylor)]
        gauge = _cis_ld(x * y)
        sums, term = np.empty((2, len(y), nx), dtype=complex)
        for i, (psi, pick, col_i) in enumerate(zip(psis, picks, cols)):
            re_i = re[:, pick]
            peak = re_i.max(axis=1, keepdims=True)
            row = _exp_ld(re_i - peak)
            # sums = 0 + sum_j weight_j * product_j, in place but in that
            # operand order: with fused multiply-adds, complex products do
            # not commute bit for bit
            for j, weight in enumerate(weights):
                product = term if j else sums
                np.matmul(row * b[pick]**j, col_i, out=product.view(float))
                np.multiply(weight, product, out=product)
                np.add(sums if j else 0, product, out=sums)
            scale = psi.norm_const * _exp_ld(peak - row_y2)
            np.multiply(scale, gauge, out=out[i, rows])
            out[i, rows] *= sums
    return out


def _points(z) -> np.ndarray:
    """z as an at-least-1-D complex array; ValueError unless every point is finite."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation point must be finite")
    return arr


def _by_points(arr, n_terms: int, evaluate, count: int = 1) -> np.ndarray:
    """evaluate(points) over arr, a block of about _BLOCK_POINTS point-term
    pairs at a time, reshaped to (count,) + arr.shape.

    evaluate maps a 1-D block of points to count values per point (one
    when count is 1), through elementwise operations and reductions per
    point only, so the values do not depend on the blocking and the
    (points x terms) temporaries stay a few MB.
    """
    flat = arr.ravel()
    out = np.empty((count, flat.size), dtype=complex)
    step = max(1, _BLOCK_POINTS // n_terms)
    for start in range(0, flat.size, step):
        out[:, start:start + step] = evaluate(flat[start:start + step])
    return out.reshape((count,) + arr.shape)


def _exp_ld(re):
    """e^re in double from long-double re, as e^hi (1 + (re - hi)) with hi the
    double nearest re, so that its rounding, about an ulp, does not grow with |re|."""
    hi = np.asarray(re, dtype=float)
    return np.exp(hi) * (1 + np.asarray(re - hi, dtype=float))


def _cis_ld(ph):
    """e^{i ph} in double from long-double ph, reduced mod _LD(_TWO_PI) first."""
    return np.exp(1j * np.asarray(np.mod(ph, _LD(_TWO_PI)), dtype=float))


def _fourier_points(psis, arr, order: int):
    """eval_fourier_stack at arbitrary points: a Horner sum per point about
    its peak term, for each section of psis (one torus).

    With a = pi L2/(N L1), the real exponent of term n peaks at
    n* = -N y/L2.  About the index n0 = nu (mod N) nearest n*, n = n0 + N m
    gives

        psi(z) = C e^{E_0(z)} sum_{|m| <= M} c_m w^m,
        E_0(z) = z^2/2 - a n0^2 + 2 pi i n0 z/L1,  c_m = e^{-a N^2 m^2},
        w = e^{-2 a N n0 + 2 pi i N z/L1},

    where a N^2 = L2^2 and |w| = e^{-2 L2^2 (n0 - n*)/N} with
    |n0 - n*| <= N/2, so no term exceeds the m = 0 term; M is
    _fourier_reach's.  The exponents of e^{E_0} and w are assembled in long
    double and cast to double once (_exp_ld, _cis_ld); the two Horner loops,
    in w and in 1/w, run in complex double.  A derivative of order k carries
    q_k(A + 2 pi i N m/L1) per term, with A = z + 2 pi i n0/L1 and q_k as in
    _taylor_rows(k, 1); expanding it in powers of 2 pi i N m/L1 gives
    k + 1 stacked Horner sums.

    The points are summed a block at a time (_by_points).  The c_m, the
    Taylor rows, and per block the long-double points and the phase
    e^{2 pi i N x/L1} of w are built once for the stack; the rest is per
    section, on the same 1-D arrays as a one-section call, so each
    section's values are that call's bit for bit.  Returns an array of
    shape (len(psis),) + arr.shape.
    """
    geo = psis[0].geometry
    big_m = _fourier_reach(geo)
    L1l, nf = _LD(geo.L1), _LD(geo.N)
    a, k1 = _LD(np.pi) * _LD(geo.L2) / (nf * L1l), _LD(_TWO_PI) / L1l
    ms = np.arange(-big_m, big_m + 1).astype(_LD)
    # coef[j, m]: c_m (2 pi N m/L1)^j; the factor i^j goes into the weights
    coef = _exp_ld(-a * nf * nf * ms * ms) * (k1 * nf * ms) ** np.arange(order + 1)[:, None]
    coef = np.asarray(coef, dtype=float)
    taylor = _taylor_rows(order, 1.0)

    def horner(coef_j, w, w_inv):
        # sum_m coef_j[m] w^m: in w for m >= 0, in 1/w for m < 0, out of
        # place on 1-D arrays, where numpy's complex products round alike
        # whatever the number of points
        up = coef_j[-1]
        for m in range(big_m - 1, -1, -1):
            up = up * w + coef_j[big_m + m]
        down = coef_j[0]
        for m in range(big_m - 1, 0, -1):
            down = down * w_inv + coef_j[big_m - m]
        return up + down * w_inv

    def block(points):
        x = points.real.astype(_LD)
        y = points.imag.astype(_LD)
        w_turn = _cis_ld(nf * k1 * x)
        out = np.empty((len(psis), len(points)), dtype=complex)
        for i, psi in enumerate(psis):
            n0 = psi.nu + geo.N * _peak_class(psi, points.imag)
            n0l = n0.astype(_LD)
            # with b = a n0 + 2 pi y/L1,
            # E_0 = (x^2 - y^2)/2 - n0 b + i x (y + 2 pi n0/L1) and
            # log w = -N (b + a n0) + 2 pi i N x/L1
            a_n0 = a * n0l
            b = a_n0 + k1 * y
            pre_abs = _exp_ld((x * x - y * y) / 2 - n0l * b)
            pre_turn = _cis_ld(x * (y + k1 * n0l))
            w_abs = _exp_ld(-nf * (b + a_n0))
            w, w_inv = w_abs * w_turn, w_turn.conj() / w_abs
            sums = [horner(coef_j, w, w_inv) for coef_j in coef]
            if order:
                # dE/dz at m = 0: A = z + 2 pi i n0/L1
                big_a = points + 1j * (_TWO_PI / geo.L1) * n0
                total = sum(_eval_poly(coeffs, big_a) * 1j**j * sums[j]
                            for j, coeffs in enumerate(taylor))
            else:
                total = sums[0]
            out[i] = psi.norm_const * (pre_abs * (pre_turn * total))
        return out

    return _by_points(arr, len(ms), block, len(psis))


def eval_fourier_stack(psis, z, order: int = 0, *, _weighted: bool = False) -> np.ndarray:
    """d^order/dz^order of each section of psis at z, shape (len(psis),) + z.shape.

    The sections must share one geometry (GeometryMismatch otherwise).  The
    whole stack is one pass: of _fourier_grid on a 2-D tensor grid, of
    _fourier_points at any other z.  ValueError for a non-finite point or a
    torus that _check_torus rejects.  The private _weighted returns the
    weighted frame e^{-|z|^2/2} d^order psi instead, on any torus; it is
    sampled on tensor grids only (ValueError at other points).
    """
    arr = _points(z)
    geo = _one_torus(psis)
    if geo is None:
        return np.empty((0,) + np.shape(z), dtype=complex)
    grid = _is_grid(arr)
    if _weighted and not grid:
        raise ValueError("the weighted frame is sampled on tensor grids only")
    if not _weighted:
        _check_torus(geo)
    out = _fourier_grid(psis, arr, order, _weighted) if grid else _fourier_points(psis, arr, order)
    return out.reshape((len(psis),) + np.shape(z))


def eval_fourier(psi: ThetaBasisFunction, z, order: int = 0):
    """Evaluate d^order/dz^order of psi at z through the Fourier series.

    z may be a complex scalar or array; the function is entire, so any
    finite z is accepted (the term window follows Im z).  Truncation keeps
    the largest dropped term below e^-40 ~ 4e-18 of the largest kept one.
    This is the one-section case of eval_fourier_stack.
    """
    out = eval_fourier_stack((psi,), z, order)[0]
    return complex(out) if np.ndim(z) == 0 else out


@functools.lru_cache(maxsize=64)
def _comb_coeffs(geometry: TorusGeometry) -> np.ndarray:
    """The Gaussian comb's Laurent coefficients c_m = e^{-m^2 h^2}, h = L1/N,
    for m = -M..M, in long double.

    M = ceil((sqrt(40 + L2^2/4) + h/2)/h) + 1 keeps every term above
    e^-(40 + L2^2/4) of the largest, since the sum can be e^{L2^2/4} smaller
    than its terms.  By the same factor the sum amplifies the coefficients'
    own rounding, so each is rounded once from a 40-digit decimal exp of the
    double L1: a long-double exp of the rounded m^2 h^2 is off by up to
    100 ulp, which at N = 20 added up to 8e-14 to the duality residual.
    """
    h = geometry.L1 / geometry.N
    big_m = int(math.ceil((math.sqrt(_TAIL_MARGIN + geometry.L2 ** 2 / 4) + h / 2) / h)) + 1
    with decimal.localcontext(decimal.Context(prec=40)):
        h_dec = decimal.Decimal(geometry.L1) / geometry.N
        half = [_LD(str((-(h_dec * m) ** 2).exp())) for m in range(big_m + 1)]
    comb = np.array(half[:0:-1] + half, dtype=_LD)
    comb.flags.writeable = False
    return comb


def eval_gaussian_stack(psis, z, order: int = 0) -> np.ndarray:
    """d^order/dz^order of each section of psis at z through the Gaussian
    series, shape (len(psis),) + z.shape.

    Includes the Poisson conversion constant sqrt(pi)/L2 * e^{-nu^2 L2^2/N^2}
    so that each row matches eval_fourier_stack's (up to rounding).  With
    h = L1/N and s = z + i nu L2/N = x + i v, the comb is summed about the
    term nearest each point, n0 = rint(-x/h), t = x + n0 h:

        sum_n e^{-(s + n h)^2} = e^{-(t + i v)^2} sum_{|m| <= M} c_m w^m,
        c_m = e^{-m^2 h^2},  w = e^{-2 h (t + i v)},

    a Laurent polynomial in w with coefficients shared by every point,
    summed by Horner's rule in w and in 1/w in complex long double.
    _comb_coeffs sets the window M and the c_m.  n0 and t do not depend on
    nu, so per block of points the nu-free factor e^{-2 h t - 2 i h y} of w
    is one long-double exp per point for the whole stack, and each section
    multiplies it by its own constant e^{-2 i h nu L2/N}.  The exponent
    ln C + z^2/2 + 2 pi i nu z/L1 - (t + i v)^2 of the prefactor is
    assembled in long double, its nu-free parts once per block, and cast
    to double once, as e^hi (1 + (re - hi)) e^{i ph}, with hi the double
    nearest its real part re and ph its imaginary part reduced mod 2pi.  A
    derivative of order k carries q_k(A - 2 h m) per term, with A = dE/dz
    at m = 0 and q_k as in _taylor_rows(k, -1); expanding it in powers of
    -2 h m gives k + 1 stacked Horner sums.

    The points are summed a block at a time (_by_points), the Horner loops
    over (k + 1, sections, points) arrays.  Each section's values are
    those of a one-section call, bit for bit.  The sections must share one
    geometry (GeometryMismatch otherwise).  ValueError for a non-finite
    point, or for a torus that _check_torus rejects, checked before
    _comb_coeffs sizes the comb.
    """
    arr = _points(z)
    geo = _one_torus(psis)
    if geo is None:
        return np.empty((0,) + np.shape(z), dtype=complex)
    _check_torus(geo)
    comb = _comb_coeffs(geo)
    big_m = len(comb) // 2
    ms = np.arange(-big_m, big_m + 1)

    L1l, L2l, pil, two_pi = _LD(geo.L1), _LD(geo.L2), _LD(np.pi), _LD(_TWO_PI)
    nf = _LD(geo.N)
    hl = L1l / nf
    # per section (rows): nu, the shift nu L2/N of v, ln C and the constant of w
    nul = np.array([psi.nu for psi in psis], dtype=_LD)[:, None]
    shift = nul * L2l / nf
    ln_const = np.log(pil) / 2 - np.log(L2l) - nul * nul * L2l * L2l / (nf * nf)
    w_nu = np.exp(1j * np.mod(-2 * hl * shift, two_pi))
    k_nu = two_pi * nul / L1l
    # coef[j, m]: c_m (-2 h m)^j, the j-th power of the term's dE/dz offset
    coef = comb * (-2 * hl * ms.astype(_LD)) ** np.arange(order + 1)[:, None]
    taylor = _taylor_rows(order, -1.0)

    def block(points):
        x = points.real.astype(_LD)
        y = points.imag.astype(_LD)
        t = x + np.rint(-x / hl) * hl
        v = y + shift
        w = np.exp(-2 * hl * t + 1j * np.mod(-2 * hl * y, two_pi)) * w_nu
        w_inv = 1 / w
        # exponent: ln C + z^2/2 + 2 pi i nu z/L1 - (t + i v)^2
        re = ((x * x - y * y) / 2 - t * t) + (ln_const - k_nu * y + v * v)
        ph = x * y + (k_nu * x - 2 * t * v)
        hi = np.asarray(re, dtype=float)
        prefactor = np.exp(hi) * (1 + np.asarray(re - hi, dtype=float)) \
            * np.exp(1j * np.asarray(np.mod(ph, two_pi), dtype=float))
        # sums = up + down/w, Horner's rule in w and in 1/w, in place
        up, down = np.empty((2, order + 1) + w.shape, dtype=w.dtype)
        up[...], down[...] = coef[:, -1:, None], coef[:, :1, None]
        for m in range(big_m - 1, -1, -1):
            up *= w
            up += coef[:, big_m + m, None, None]
        for m in range(big_m - 1, 0, -1):
            down *= w_inv
            down += coef[:, big_m - m, None, None]
        down *= w_inv
        sums = up + down
        if order:
            # dE/dz at m = 0: z + 2 pi i nu/L1 - 2 (t + i v)
            a = x - 2 * t + 1j * (y + k_nu - 2 * v)
            sums = sum(_eval_poly(coeffs, a) * sums[j] for j, coeffs in enumerate(taylor))
        else:
            sums = sums[0]
        return np.asarray(prefactor * sums, dtype=complex)

    norms = np.array([psi.norm_const for psi in psis])
    out = norms[:, None] * _by_points(arr, len(ms), block, len(psis)).reshape(len(psis), -1)
    return out.reshape((len(psis),) + np.shape(z))


def eval_gaussian(psi: ThetaBasisFunction, z, order: int = 0):
    """Evaluate d^order/dz^order of psi at z through the Gaussian series,
    the independent reference for eval_fourier.

    This is the one-section case of eval_gaussian_stack, which states the
    sum and its precision.
    """
    out = eval_gaussian_stack((psi,), z, order)[0]
    return complex(out) if np.ndim(z) == 0 else out


def duality_residuals(psis, z) -> list[float]:
    """Largest |Fourier - Gaussian| at the points z, one per section of psis
    (one torus), relative to the larger of the two representations' largest
    magnitudes there.  The stack is one eval_fourier_stack and one
    eval_gaussian_stack pass, so each entry is that of a call on its section
    alone."""
    f, g = eval_fourier_stack(psis, z), eval_gaussian_stack(psis, z)
    points = tuple(range(1, f.ndim))
    scale = np.maximum(np.max(np.abs(f), axis=points), np.max(np.abs(g), axis=points))
    return (np.max(np.abs(f - g), axis=points) / scale).tolist()


def _wrap_exponent(geometry: TorusGeometry, w0, n1, n2):
    """E with s(w0 + n1 L1 + i n2 L2) = s(w0) exp(E) at trivial phases, for
    integers or integer arrays n1, n2: the twisted periodicity stepped one
    period at a time (the path order is immaterial once L1 L2 = N pi)."""
    L1, L2 = geometry.L1, geometry.L2
    return (n1 * L1 - 1j * n2 * L2) * w0 \
        + (n1**2 * L1**2 + n2**2 * L2**2) / 2 \
        + 1j * (n1 * n2 * geometry.N) * math.pi


def boundary_factors(geometry: TorusGeometry, z, phases: BoundaryPhases = TRIVIAL_PHASES):
    """The two twisted-periodicity factors at z.

    Returns (F1, F2) with  psi(z + L1) = psi(z) F1  and
    psi(z + i L2) = psi(z) F2  for a section with the given phases: the
    _wrap_exponent of one step along L1 or i L2, plus i delta1 or i delta2.
    """
    z = np.asarray(z, dtype=complex)
    return (np.exp(_wrap_exponent(geometry, z, 1, 0) + 1j * phases.delta1),
            np.exp(_wrap_exponent(geometry, z, 0, 1) + 1j * phases.delta2))


def boundary_residuals(psis, z, phases: BoundaryPhases = TRIVIAL_PHASES,
                       base=None) -> list[float]:
    """Relative residual of the twisted periodicity conditions at z, one per
    ground state of psis (one torus).

    Each law is read at its period's preimage: for P = L1 and P = i L2,
    max |s(z) - s(z-P) F_P(z-P)| over the points, divided by the largest of
    |s(z)| and |s(z-P) F_P(z-P)| there (F_P as in boundary_factors); each
    entry is the larger of the two.  On the cell no sampled w has |w|^2 above
    L1^2 + L2^2, the bound of _check_torus.  The stack is one
    eval_fourier_stack pass at each of z, z - L1 and z - i L2, so each entry
    is bit-identical to a call on its section alone.  `base` takes the
    stack's samples at z already held, so that they are not evaluated again.
    """
    z = np.asarray(z, dtype=complex)
    geo = _one_torus(psis)
    if geo is None:
        return []
    if base is None:
        base = eval_fourier_stack(psis, z)
    points = tuple(range(1, base.ndim))
    worst, held = np.zeros(len(psis)), np.max(np.abs(base), axis=points)
    for n1, n2, delta in ((1, 0, phases.delta1), (0, 1, phases.delta2)):
        source = z - (n1 * geo.L1 + 1j * n2 * geo.L2)
        # this period's factor alone: the other one can overflow here
        factor = np.exp(_wrap_exponent(geo, source, n1, n2) + 1j * delta)
        expected = eval_fourier_stack(psis, source) * factor
        scale = np.maximum(held, np.max(np.abs(expected), axis=points))
        worst = np.maximum(worst, np.max(np.abs(base - expected), axis=points) / scale)
    return worst.tolist()


def double_shift_factors(geometry: TorusGeometry, z):
    """Factors relating psi(z + L1 + i L2) to psi(z) along the two edge orders,
    for trivial boundary phases.

    Returns (via_x_then_y, via_y_then_x, symmetric) where `symmetric` is
    exp{(L1 - i L2) z + |L1 + i L2|^2 / 2}.  Each path equals symmetric
    times exp(-+ i L1 L2); consistency of the two paths is exp(2 i L1 L2) =
    1, which forces L1 L2 = N pi, and the per-path factor relative to
    symmetric is exp(-+ i N pi) = (-1)^N.
    """
    z = np.asarray(z, dtype=complex)[()]
    L1, L2 = geometry.L1, geometry.L2
    e_sym = (L1 - 1j * L2) * z + abs(L1 + 1j * L2) ** 2 / 2
    via_xy = np.exp(e_sym - 1j * L1 * L2)
    via_yx = np.exp(e_sym + 1j * L1 * L2)
    return via_xy, via_yx, np.exp(e_sym)


def _unit_norm_const(geometry: TorusGeometry) -> float:
    """norm_const of a unit-norm ground state, (L1 sqrt(pi/2))^(-1/2).

    On the flux-quantized torus the x-integral of e^{-|z|^2} |psi_nu|^2
    keeps only the diagonal Fourier terms, e^{-2 (y + pi n/L1)^2} at
    norm_const 1.  Their shifts pi n/L1, n = nu (mod N), step by
    pi N/L1 = L2, so over one period in y they tile the line, and
    ||psi_nu||^2 = L1 sqrt(pi/2) for every nu and aspect ratio.  The
    creation operator keeps the norm, ||(d/dz - zbar) psi|| = ||psi||, so
    the same constant normalizes level 1.
    """
    return (geometry.L1 * math.sqrt(math.pi / 2)) ** -0.5


def normalize(psi: ThetaBasisFunction) -> ThetaBasisFunction:
    """Copy of psi with the norm_const of unit norm, whatever psi's own.

    The constant is closed-form (_unit_norm_const); the default Quadrature
    reproduces the unit norm to about 1e-14.
    """
    return dataclasses.replace(psi, norm_const=_unit_norm_const(psi.geometry))


def normalized_basis(geometry: TorusGeometry) -> list[ThetaBasisFunction]:
    """The N ground states, each at the closed-form unit-norm constant."""
    return [normalize(psi) for psi in ground_basis(geometry)]
