"""Exception types raised across the package."""


class RiemannLabError(Exception):
    """Base class for all package errors."""


class DegenerateBox(RiemannLabError):
    """An axis interval has upper <= lower (or the dimension cap is violated)."""


class CountOverflow(RiemannLabError):
    """Requested cell count exceeds the materialization cap."""


class TagEscape(RiemannLabError):
    """A tag point could not be kept inside the base/perturbed cell intersection."""


class MissingTerms(RiemannLabError):
    """LargestTerm selection was requested without per-cell term magnitudes."""


class EqualPartitionRequired(RiemannLabError):
    """A vanishing-fraction deletion schedule was bound to a non-equal partition."""


class TooFewCells(RiemannLabError, ValueError):
    """Deletion was requested on fewer than two cells, where no K < m exists."""


class UnboundPlan(RiemannLabError):
    """A deletion plan was used before being bound to a partition."""


class DimensionMismatch(RiemannLabError):
    """Field/partition/path dimensions are inconsistent."""


class DegenerateNormal(RiemannLabError):
    """The surface normal vanishes at a tag used by a surface sum."""


class OrientationCheckFailed(RiemannLabError):
    """The declared boundary orientation fails the probe-field sign check."""


class UnknownScenario(RiemannLabError):
    """Scenario name not present in the registry."""


class NonMonotoneMList(RiemannLabError):
    """Sweep resolution list is too short or not strictly increasing."""


class IoFailure(RiemannLabError):
    """Writing a report to its destination failed."""
