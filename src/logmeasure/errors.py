"""Exception and warning types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse falls back to ValueError/TypeError from the
validation helpers.
"""


class LogMeasureError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LogMeasureError):
    """A norm specification failed validation."""


class NotCentrallySymmetric(ValidationError):
    """Polyhedral vertex set is not closed under negation."""


class DegenerateBall(ValidationError):
    """Candidate unit ball is not full-dimensional or lacks 0 in its interior."""


class NotConvex(ValidationError):
    """Piecewise definition fails convexity or continuity across orthant boundaries."""


class SingularScaling(ValidationError):
    """Scaling matrix of a scaled norm is singular to working precision."""


class DimensionMismatch(LogMeasureError):
    """Operand dimensions are incompatible (vector vs spec, matrix vs spec)."""


class WrongDimension(DimensionMismatch):
    """An operation restricted to a fixed dimension got something else."""


class NotPolyhedral(LogMeasureError):
    """Vertex enumeration requested for a norm whose ball is not a polytope."""


class UnsupportedDimension(LogMeasureError):
    """Operation is only implemented below a dimension cap."""


class NoExactPath(LogMeasureError):
    """Operation requires an exact norm/measure route but only estimation exists."""


class EigenFailure(LogMeasureError):
    """Eigenvalue backend did not converge."""


class Marginal(LogMeasureError):
    """Spectral abscissa sits inside the +/- tol dead band; no stability verdict."""


class NotMetzler(LogMeasureError):
    """Matrix has a negative off-diagonal entry where a Metzler matrix is required."""


class NotNonnegativeDiagonal(LogMeasureError):
    """Coupling matrix must be diagonal with nonnegative entries."""


class StepTooLarge(LogMeasureError):
    """Integrator step violates dt * ||block||_inf <= 0.1 or exceeds the horizon."""


class BadTimeGrid(LogMeasureError, ValueError):
    """Horizon or dt is not a positive finite number, or the time grid would
    store more state values than the integrator's cap."""


class BaseNotHurwitz(LogMeasureError):
    """Synchronization verdict requested for a non-Hurwitz base matrix."""


class NotOrthantMonotonic(LogMeasureError):
    """Operation requires an orthant-monotonic norm."""


class InconsistentOracles(LogMeasureError):
    """Two routes that must agree disagreed; signals an internal bug, never a verdict."""


class NotAdmissibleWarning(UserWarning):
    """Diagonal-measure identity requested under a norm whose measure is not admissible."""
