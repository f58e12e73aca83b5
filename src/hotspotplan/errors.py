"""Exception types shared across the package."""


class HotspotPlanError(Exception):
    """Base class for all library errors."""


class SingularGram(HotspotPlanError):
    """Observation Gram matrix is not positive definite (e.g. duplicate
    locations with a zero nugget)."""


class DegenerateCovariance(HotspotPlanError):
    """Covariance matrix has non-positive determinant within tolerance."""


class InsufficientData(HotspotPlanError):
    """Too few observations for the requested estimate."""


class IllegalAction(HotspotPlanError):
    """Action violates the transition preconditions."""


class InstanceTooLarge(HotspotPlanError):
    """Exhaustive solver invoked outside its tractable instance range."""


class BoundsCrossed(HotspotPlanError, ValueError):
    """A lower value bound exceeds its upper bound."""


class DeadEnd(HotspotPlanError):
    """No legal action remains for any robot."""


class VanishingInterval(HotspotPlanError):
    """A partition interval carries essentially zero probability mass."""


class ParseError(HotspotPlanError):
    """Malformed input file."""


class MissingCell(HotspotPlanError):
    """Field file does not cover the domain exactly once per cell."""


class NonPositiveValue(HotspotPlanError):
    """Field values must be strictly positive."""


class ConfigError(HotspotPlanError):
    """Invalid experiment configuration."""


class IoError(HotspotPlanError):
    """Failed to persist results."""
