"""Exception types shared across the package."""


class DriftCornerError(Exception):
    """Base class for all package errors."""


class OffCorridor(DriftCornerError):
    """Point is too far from the centerline to project reliably."""


class AmbiguousProjection(DriftCornerError):
    """Two projection minima are numerically tied but far apart in s."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"ambiguous projection, candidates at s = {self.candidates}")


class OutOfRange(DriftCornerError):
    """Arc-length query outside [0, s_max]."""


class BadTrackSpec(DriftCornerError):
    """Track parameters are inconsistent."""


class BadInputFile(DriftCornerError):
    """A track, pre-trajectory or preview file is malformed, or holds
    values its loader refuses; the refusal names the file."""


class Infeasible(DriftCornerError):
    """Constraints admit no solution."""


class NoConvergence(DriftCornerError):
    """Iteration budget exhausted before the tolerance was met."""


class NumericalBlowup(DriftCornerError):
    """Plant state left its sanity bounds; integration or controller fault."""


class SingularSpeed(DriftCornerError):
    """Linearization requested below the model's speed guard."""


class PreviewFailed(DriftCornerError):
    """Policy crashed in its own training plant while generating a preview."""
