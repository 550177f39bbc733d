"""Exception types raised across the package.

Each type carries the exit code the command line returns for it: 2 for
invalid input or a value that cannot be computed, 3 for a rank-deficient
design or an infeasible sketch size, 4 for a missing W* byproduct.
"""


class SketchInferError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class NonFinite(SketchInferError):
    """Input contains NaN or infinite entries."""


class RankDeficient(SketchInferError):
    """A design (or sketched design) matrix is numerically rank deficient."""

    exit_code = 3


class DimensionMismatch(SketchInferError):
    """Array shapes are inconsistent with the declared (n, k, p)."""


class DomainError(SketchInferError, ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class InfeasibleSketchSize(DomainError):
    """The sketch size k is below 1, or too small (k <= p) to support a fit."""

    exit_code = 3


class WStarUnavailable(DomainError):
    """W* = S S^T was requested with k > n, where it is singular."""

    exit_code = 4


class ConvergenceError(SketchInferError):
    """A series or quadrature failed to reach the requested tolerance."""


class OverflowSignal(SketchInferError):
    """The requested value overflows double precision.

    A log-scaled or exponentially-scaled variant of the operation is
    available and should be used instead.
    """


class GammaNonpositive(SketchInferError):
    """The unbiasedness adjustment (k - p - 1)/k is not positive."""

    exit_code = 3


class MissingWStar(SketchInferError):
    """The operation needs the sketch Gram byproduct S S^T, which was not requested."""

    exit_code = 4


class DegenerateSSR(SketchInferError):
    """A pivot denominator SSR term is zero or negative."""


class ZeroEstimate(SketchInferError):
    """A pivot divides by an estimate that is exactly zero for this realization."""


class AssumptionViolated(SketchInferError):
    """The contrast vector is (numerically) parallel to the degenerate direction."""


class NegativeVariance(SketchInferError):
    """A variance term in a stochastic representation evaluated negative."""


class NegativeDenominator(SketchInferError):
    """A pivot denominator evaluated non-positive for this realization.

    Reported rather than clamped: clamping would silently destroy the
    calibration of the test.  Callers that replicate (e.g. the simulation
    harness) should count these events.
    """


class EmptyInput(SketchInferError):
    """An operation that needs at least one sample received none."""


class WorkerFailed(SketchInferError):
    """A worker process running a range of simulation replicates exited
    without returning its results (killed, or died of an unexpected error)."""
