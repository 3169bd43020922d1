"""Exception types shared across the package."""


class TorusLandauError(Exception):
    """Base class for all package-specific errors."""


class NonIntegralFlux(TorusLandauError):
    """Magnetic flux through the torus is not an integer number of flux quanta.

    Attributes:
        flux_ratio: the measured flux in units of one flux quantum (L1*L2/pi
            in natural units)
        fractional: distance of flux_ratio from the nearest integer
    """

    def __init__(self, flux_ratio, message=None):
        self.flux_ratio = float(flux_ratio)
        self.fractional = self.flux_ratio - round(self.flux_ratio)
        if message is None:
            message = (
                f"flux is {self.flux_ratio:.12g} flux quanta, "
                f"off an integer by {self.fractional:.3g}"
            )
        super().__init__(message)


class GeometryMismatch(TorusLandauError):
    """Operands live on different tori."""


class ZeroNorm(TorusLandauError):
    """Quadrature norm vanished where a nonzero section was required."""


class NotAPeriod(TorusLandauError):
    """Displacement is not an integer combination of the torus periods."""


class NotConstant(TorusLandauError):
    """Cocycle sum varies over a triangle, signalling inconsistent lifts."""
