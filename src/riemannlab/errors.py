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


class InvalidParameter(RiemannLabError, ValueError):
    """A parameter is out of range or unknown: a gamma outside [0, 1), a K that
    is not an integer >= 1, a beta outside (0, 1), a seed that is not a
    non-negative integer, a deleted index set that is not 1-D integers, a tag
    rule or variant label, explicit tags of the wrong shape or outside their
    cells, or a scenario name registered twice."""


class NonFiniteSum(RiemannLabError, ValueError):
    """A sum or a theorem gap is not finite: its terms overflow, or hold inf or nan."""


class UnboundPlan(RiemannLabError):
    """A deletion plan was used before being bound to a partition."""


class DimensionMismatch(RiemannLabError):
    """Field/partition/path dimensions are inconsistent."""


class OrientationCheckFailed(RiemannLabError):
    """The declared boundary orientation fails the probe-field sign check."""


class UnknownScenario(RiemannLabError):
    """Scenario name not present in the registry."""


class NonMonotoneMList(RiemannLabError):
    """Sweep resolution list is too short or not strictly increasing."""


class IoFailure(RiemannLabError):
    """Writing a report to its destination failed."""
