"""Exception types shared across the package.  Each class carries the exit
code the command line returns for it: 2 configuration or map error, 3
numerical non-convergence, 4 a failed audited bound."""


class ExpCircleError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class Violation(ExpCircleError):
    """An audited bound failed: an audit reports it as FAIL."""

    exit_code = 4


class CertificationError(ExpCircleError):
    """An asserted map constant failed its dense-grid audit."""


class NotExpanding(CertificationError):
    """Sampled derivative drops below the asserted expansion constant."""


class DegreeMismatch(CertificationError):
    """Sampled lift increment disagrees with the asserted winding number."""


class RootFindingFailure(ExpCircleError):
    """Branch inversion did not reach the residual tolerance in budget."""

    exit_code = 3


class ArcViolation(Violation):
    """Points cannot be placed in a common arc of length <= 1/2."""


class ResolutionMismatch(ExpCircleError):
    """Grid operands live on different resolutions."""


class NonPositiveDensity(ExpCircleError):
    """Density values are negative, or zero where positivity is required."""


class FloorViolation(Violation):
    """Density dips below the uniform component being extracted."""


class NoConvergence(ExpCircleError):
    """Fixed-point iteration exhausted its budget."""

    exit_code = 3


class NotInvariant(Violation):
    """Claimed invariant density moves under the transfer operator."""


class ZeroObservable(ExpCircleError):
    """Observable is identically zero where a normalization divides by it."""


class InvalidAlpha(ExpCircleError):
    """Hoelder exponent outside (0, 1]."""


class AuditViolation(Violation):
    """A quantitative bound under audit failed outside tolerance."""


class ConfigError(ExpCircleError):
    """Malformed run configuration."""
