"""Domain exceptions shared across modules."""

__all__ = [
    "CshomError",
    "NotInSpan",
    "NonIntegerSolution",
    "StraighteningStalled",
    "ComplexNotExact",
    "PlanarInput",
    "NotASubgraph",
    "LiftFailed",
]


class CshomError(Exception):
    """Base class for domain errors raised by this package."""


class NotInSpan(CshomError):
    """A vector is not an integer combination of the given basis."""


class NonIntegerSolution(CshomError):
    """The unique rational expansion exists but is not integral."""


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
