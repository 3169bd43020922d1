"""Torus geometry, natural units, and the flux quantization gate.

Everything downstream works in natural units: lengths in sqrt(hbar/(m*omega))
with omega = e*B/(2*m*c) the Larmor frequency, energies in hbar*omega.  In
these units the Hermitian weight is exp(-|z|^2) and flux quantization reads
L1*L2 = N*pi with N the number of flux quanta through the torus.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import tolerances
from .errors import NonIntegralFlux

# CGS-Gaussian constants of the carrier, an electron
E_CHARGE = 4.80320425e-10   # statC
M_ELECTRON = 9.1093837015e-28  # g
HBAR = 1.054571817e-27      # erg*s
C_LIGHT = 2.99792458e10     # cm/s


@dataclass(frozen=True)
class PhysicalConfig:
    """Physical description of an electron on the torus, CGS-Gaussian units.

    Args:
        B: magnetic field strength (gauss)
        L1_phys, L2_phys: torus sides (cm)
    """

    B: float
    L1_phys: float
    L2_phys: float

    def __post_init__(self):
        for name in ("B", "L1_phys", "L2_phys"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def length_unit(self) -> float:
        """Natural length sqrt(hbar/(m*omega)) = sqrt(2 hbar c/(e B)),
        with omega = e*B/(2*m*c); m cancels but stays in the formula, which
        fixes how the result rounds.  inf if m*omega underflows to zero."""
        omega = E_CHARGE * self.B / (2 * M_ELECTRON * C_LIGHT)
        m_omega = M_ELECTRON * omega
        return math.sqrt(HBAR / m_omega) if m_omega else math.inf


@dataclass(frozen=True)
class TorusGeometry:
    """Rectangular torus in natural units with N flux quanta.

    Invariants: L1, L2 finite and > 0, and L1*L2 = N*pi to relative
    precision geometry_area_rel, enforced at construction.  Instances are
    immutable and safe to share across threads.
    """

    L1: float
    L2: float
    N: int

    def __post_init__(self):
        _flux_ratio(self.L1, self.L2)
        if not (isinstance(self.N, numbers.Integral) and not isinstance(self.N, bool)
                and self.N >= 1):
            raise ValueError("flux quantum count N must be a positive integer")
        object.__setattr__(self, "N", int(self.N))
        area, target = self.L1 * self.L2, self.N * math.pi
        if abs(area - target) > tolerances.get("geometry_area_rel") * target:
            raise NonIntegralFlux(area / math.pi)

    @classmethod
    def square(cls, N: int) -> "TorusGeometry":
        side = math.sqrt(N * math.pi)
        return cls(side, side, N)

    @classmethod
    def with_aspect(cls, N: int, ratio: float) -> "TorusGeometry":
        """Torus with L1/L2 = ratio and N flux quanta."""
        L1 = math.sqrt(N * math.pi * ratio)
        return cls(L1, N * math.pi / L1, N)

    @property
    def area(self) -> float:
        return self.L1 * self.L2


def _flux_ratio(L1: float, L2: float) -> float:
    """L1*L2/pi; ValueError unless the sides are finite and positive and the
    ratio is finite."""
    if not (0 < L1 < math.inf and 0 < L2 < math.inf):
        raise ValueError(f"torus sides must be finite and strictly positive, "
                         f"got L1={L1}, L2={L2}")
    ratio = L1 * L2 / math.pi
    if not math.isfinite(ratio):
        raise ValueError(f"flux L1*L2/pi overflows for L1={L1}, L2={L2}")
    return ratio


def dirac_quantize(L1: float, L2: float) -> int:
    """Number of flux quanta for a torus with natural-unit sides L1, L2.

    Returns N = L1*L2/pi when that is an integer >= 1 within relative
    tolerance flux_integrality_rel, a gate on physical input that carries
    measurement noise; raises NonIntegralFlux otherwise (the exception
    records the fractional part).  ValueError unless the sides and the
    ratio are finite and the sides positive.
    """
    ratio = _flux_ratio(L1, L2)
    n = round(ratio)
    tol = tolerances.get("flux_integrality_rel")
    if n < 1 or abs(ratio - n) > tol * max(1.0, abs(ratio)):
        raise NonIntegralFlux(ratio)
    return n


def to_natural(cfg: PhysicalConfig) -> TorusGeometry:
    """Convert a physical configuration to natural units.

    The flux B*L1*L2 must be an integer multiple of hc/e within relative
    tolerance flux_integrality_rel.  Input float noise inside that gate is
    absorbed by an aspect-preserving rescale so the returned geometry
    satisfies L1*L2 = N*pi exactly (to geometry_area_rel).  ValueError if
    the field is so strong or so weak that the natural length unit is zero
    or not finite in double precision.
    """
    unit = cfg.length_unit
    if not 0 < unit < math.inf:
        raise ValueError(f"B={cfg.B} gives natural length unit {unit}; "
                         "it must be finite and positive")
    L1 = cfg.L1_phys / unit
    L2 = cfg.L2_phys / unit
    n = dirac_quantize(L1, L2)
    snap = math.sqrt(n * math.pi / (L1 * L2))
    return TorusGeometry(L1 * snap, L2 * snap, n)


def parse_config(text: str) -> dict:
    """Parse a line-based key=value configuration.

    Recognized keys: B, L1, L2, units (natural|physical), N.  Blank lines
    and '#' comments are ignored.  Values are returned as float (N as int,
    units as str); unknown keys raise ValueError.
    """
    known = {"B", "L1", "L2", "units", "N"}
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key == "units":
            if value not in ("natural", "physical"):
                raise ValueError(f"line {lineno}: units must be natural|physical")
            out[key] = value
        elif key == "N":
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def resolve_geometry(options: dict) -> TorusGeometry:
    """Build a TorusGeometry from config/CLI options.

    Precedence: with units=physical, B/L1/L2 are physical and converted via
    to_natural.  With units=natural (default): explicit L1 and L2 determine
    N through dirac_quantize; N alone selects the square torus; N plus one
    side fixes the other through L1*L2 = N*pi.  A supplied N must agree with
    the sides.
    """
    units = options.get("units", "natural")
    n = options.get("N")
    L1 = options.get("L1")
    L2 = options.get("L2")
    if units == "physical":
        if options.get("B") is None or L1 is None or L2 is None:
            raise ValueError("physical units require B, L1 and L2")
        geo = to_natural(PhysicalConfig(B=options["B"], L1_phys=L1, L2_phys=L2))
        if n is not None and n != geo.N:
            raise ValueError(f"N={n} conflicts with quantized flux N={geo.N}")
        return geo
    if L1 is not None and L2 is not None:
        derived = dirac_quantize(L1, L2)
        if n is not None and n != derived:
            raise ValueError(f"N={n} conflicts with L1*L2/pi={derived}")
        return TorusGeometry(L1, L2, derived)
    if n is None:
        raise ValueError("specify N, or both L1 and L2")
    if L1 is not None:
        return TorusGeometry(L1, n * math.pi / L1, n)
    if L2 is not None:
        return TorusGeometry(n * math.pi / L2, L2, n)
    return TorusGeometry.square(n)
