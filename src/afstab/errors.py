"""Exception types shared across the laboratory."""


class AfstabError(Exception):
    """Base class for all package errors."""


class OutOfDomain(AfstabError):
    """A chart point (or a whole sphere/ball) lies outside the chart box."""


class ExcisedPoint(AfstabError):
    """A chart point lies inside the excised region or on a metric singularity."""


class MismatchedChart(AfstabError):
    """Fields and chart passed to an operation do not belong together."""


class SolverDiverged(AfstabError):
    """Iterative linear solve failed to reach tolerance within its budget."""


class FitFailure(AfstabError):
    """Extrapolation fit residual exceeds mass.FIT_RESIDUAL_TOL of the value scale."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BadFieldDump(AfstabError, ValueError):
    """A binary field dump is malformed: bad magic, layout or payload length,
    or a grid or values that Grid and ScalarGridField reject."""


class LeftDomain(AfstabError):
    """A geodesic or flow line exited the chart box."""


class NoConvergence(AfstabError):
    """Two-point geodesic shooting, or a computation built on it, did not converge."""


class NoDistanceBound(AfstabError):
    """The chart's conformal factor has no positive lower bound, so no chart
    distance bounds a geodesic distance from below."""


class NoCrossing(AfstabError):
    """A geodesic reached its far endpoint without crossing the level set."""


class EmptySample(AfstabError):
    """All candidate points were filtered out of a sampling ball."""


class ParseError(AfstabError):
    """Config file could not be read as structured text."""


class ValidationError(AfstabError):
    """Config failed validation; collects every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))
