"""Exception types raised across the package."""


class SketchInferError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(SketchInferError):
    """Input contains NaN or infinite entries."""


class RankDeficient(SketchInferError):
    """A design (or sketched design) matrix is numerically rank deficient."""


class DimensionMismatch(SketchInferError):
    """Array shapes are inconsistent with the declared (n, k, p)."""


class DomainError(SketchInferError, ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class ConvergenceError(SketchInferError):
    """A series or quadrature failed to reach the requested tolerance."""


class OverflowSignal(SketchInferError):
    """The requested value overflows double precision.

    A log-scaled or exponentially-scaled variant of the operation is
    available and should be used instead.
    """


class GammaNonpositive(SketchInferError):
    """The unbiasedness adjustment (k - p - 1)/k is not positive."""


class MissingWStar(SketchInferError):
    """The operation needs the sketch Gram byproduct S S^T, which was not requested."""


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
