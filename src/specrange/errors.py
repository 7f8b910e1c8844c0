"""Exception types shared across the package."""


class SpecRangeError(Exception):
    """Base class for all specrange errors."""


class NonHermitian(SpecRangeError):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NonFinite(SpecRangeError):
    """Matrix or vector contains NaN/inf entries."""


class DimensionMismatch(SpecRangeError):
    """Operands have incompatible dimensions."""


class NotNormalized(SpecRangeError):
    """State vector is not unit-norm within tolerance."""


class NoConvergence(SpecRangeError):
    """Eigensolver failed to converge (pathological input)."""


class GammaOutOfRange(SpecRangeError):
    """Requested operator power is invalid."""


class UnsupportedJ(SpecRangeError):
    """The requested quantity has no value, or no closed form, at this quantum number."""


class DegenerateRange(SpecRangeError):
    """Spectral interval has zero width; measures are undefined."""


class EmptyBoundary(SpecRangeError):
    """Boundary object carries no faces."""


class UnsupportedFamily(SpecRangeError):
    """No limit-region description exists for this family/power."""
