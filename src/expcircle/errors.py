"""Exception types shared across the package."""


class ExpCircleError(Exception):
    """Base class for every error raised by this package."""


class CertificationError(ExpCircleError):
    """An asserted map constant failed its dense-grid audit."""


class NotExpanding(CertificationError):
    """Sampled derivative drops below the asserted expansion constant."""


class DegreeMismatch(CertificationError):
    """Sampled lift increment disagrees with the asserted winding number."""


class RootFindingFailure(ExpCircleError):
    """Branch inversion did not reach the residual tolerance in budget."""


class ArcViolation(ExpCircleError):
    """Points cannot be placed in a common arc of length <= 1/2."""


class ResolutionMismatch(ExpCircleError):
    """Grid operands live on different resolutions."""


class NonPositiveDensity(ExpCircleError):
    """Density values are negative, or zero where positivity is required."""


class FloorViolation(ExpCircleError):
    """Density dips below the uniform component being extracted."""


class NoConvergence(ExpCircleError):
    """Fixed-point iteration exhausted its budget."""


class NotInvariant(ExpCircleError):
    """Claimed invariant density moves under the transfer operator."""


class ZeroObservable(ExpCircleError):
    """Observable is identically zero where a normalization divides by it."""


class InvalidAlpha(ExpCircleError):
    """Hoelder exponent outside (0, 1]."""


class AuditViolation(ExpCircleError):
    """A quantitative bound under audit failed outside tolerance."""


class ConfigError(ExpCircleError):
    """Malformed run configuration."""


# An audited bound failed: an audit reports these as FAIL, the CLI exits 4.
VIOLATIONS = (AuditViolation, FloorViolation, ArcViolation, NotInvariant)
