"""Exception types raised across the package, and the one set of argument checkers.

Each type carries the exit code the command line returns for it: 2 for
invalid input or a value that cannot be computed, 3 for a rank-deficient
design or an infeasible sketch size, 4 for a missing W* byproduct.
"""

import math
import numbers

import numpy as np

_FLOAT = np.dtype(float)


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


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int, checked to be an integer >= ``least`` (where given)."""
    if type(value) is not int:  # the fast path: the densities check at every point
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} takes an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def _index(name: str, j, p: int) -> int:
    """``j`` as an int, checked to be an integer in [0, p)."""
    j = _integer(name, j)
    if not 0 <= j < p:
        raise DomainError(f"{name} {j} outside [0, {p})")
    return j


def _as_float(value) -> float:
    """A real that is not a bool as a float (inf past double precision), else NaN."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        return float(value) if real else math.nan
    except OverflowError:  # an int or a Fraction
        return math.inf


def _real(name: str, value, nonnegative: bool = False) -> float:
    """``value`` as a float, checked to be a finite real > 0 (>= 0 if ``nonnegative``)."""
    x = value if type(value) is float else _as_float(value)
    if x < math.inf and (x >= 0.0 if nonnegative else x > 0.0):  # NaN fails both
        return x
    raise DomainError(f"{name} must be a finite real {'>=' if nonnegative else '>'} 0, "
                      f"got {value!r}")


def _finite_real(name: str, value) -> float:
    """``value`` as a float, checked to be a finite real of either sign."""
    x = value if type(value) is float else _as_float(value)
    if abs(x) < math.inf:  # NaN fails
        return x
    raise DomainError(f"{name} must be a finite real, got {value!r}")


def _probability(name: str, value) -> float:
    """``value`` as a float, checked to be a real in (0, 1)."""
    x = value if type(value) is float else _as_float(value)
    if 0.0 < x < 1.0:  # NaN fails
        return x
    raise DomainError(f"{name} must be in (0, 1), got {value!r}")


def _float_vector(name: str, value, p: int) -> np.ndarray:
    """``value`` flattened to a float array, checked to hold p integers or floats."""
    v = value
    if type(v) is not np.ndarray or v.dtype is not _FLOAT:
        try:
            v = np.asarray(v)
        except ValueError:  # a ragged nesting
            v = np.asarray(None)
        if v.dtype.kind not in "iuf":
            raise DomainError(f"{name} takes a vector of reals, got {value!r}")
        v = v.astype(float)
    v = v.reshape(-1)
    if v.size != p:
        raise DomainError(f"{name} has length {v.size}, expected {p}")
    return v
