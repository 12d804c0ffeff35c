"""Domain exceptions shared across modules."""

__all__ = [
    "CshomError",
    "StraighteningStalled",
    "ComplexNotExact",
    "PlanarInput",
    "NotASubgraph",
    "LiftFailed",
]


class CshomError(Exception):
    """Base class for domain errors raised by this package."""


class StraighteningStalled(CshomError):
    """Rewriting met a standard term outside the basis or exceeded its
    step budget."""


class ComplexNotExact(CshomError):
    """The composite of consecutive differentials is nonzero."""


class PlanarInput(CshomError):
    """Certification was requested for a graph with no Kuratowski witness."""


class NotASubgraph(CshomError):
    """The claimed embedding does not map edges onto edges."""


class LiftFailed(CshomError):
    """A certificate transport step produced data that failed verification."""
