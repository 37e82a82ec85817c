"""Exception hierarchy shared by all gpk modules."""


class GpkError(Exception):
    """Base class for all library errors."""


class CollinearPoints(GpkError):
    """Three points do not span a plane."""


class DegeneratePlane(GpkError):
    """Zero normal, or the camera origin lies on the plane (d = 0)."""


class SingularIntrinsics(GpkError):
    """Intrinsic matrix is not invertible."""


class InsufficientPoints(GpkError):
    """Fewer than three usable points for triangulation."""


class AllDegenerate(GpkError):
    """Every candidate triangle is degenerate (e.g. collinear input)."""


class DimensionMismatch(GpkError):
    """Map or matrix dimensions disagree."""


class ShapeMismatch(GpkError):
    """Inconsistent tensor shapes in the attention reference blocks."""


class DomainError(GpkError):
    """A loss argument is outside its valid domain."""


class EmptyInput(GpkError):
    """An aggregate operation received no data."""


class QuantityMismatch(GpkError):
    """Two scatter series carry different quantities."""


class ConfigError(GpkError):
    """Invalid synthetic-scene configuration."""


class ParseError(GpkError):
    """A text input could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, reason, line=None):
        self.reason = reason
        self.line = line
        msg = reason if line is None else f"line {line}: {reason}"
        super().__init__(msg)
