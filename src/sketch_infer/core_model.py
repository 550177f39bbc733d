"""Full-data regression quantities that every sketched estimator is judged against."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DomainError, NonFinite, RankDeficient

# Smallest |R_jj| / ||X_j|| that still counts as full rank.
RANK_TOL = 1e-10


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("design matrix must be two-dimensional")
    return X


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFinite("input contains NaN or infinite entries")


def _qr_full_rank(X: np.ndarray):
    """Economy QR with a scale-invariant rank check.

    |R_jj| is the norm of column j's part orthogonal to the columns before
    it, and ||R[:j+1, j]|| = ||X_j|| its whole norm, so their ratio is the
    sine of the angle between X_j and the earlier columns' span.  It does
    not change when a column is rescaled; each must exceed RANK_TOL.
    """
    Q, R = np.linalg.qr(X)
    d = np.abs(np.diag(R))
    # hypot overflows only where the norm itself does, not where its square does
    with np.errstate(over="ignore"):
        norms = np.hypot.reduce(R[:, :d.size], axis=0)
    # written so that a NaN fails the test too, as does a non-finite norm
    if d.size == 0 or not (d > RANK_TOL * norms).all():
        if not np.isfinite(norms).all():
            raise NonFinite("the QR factorization overflowed: the matrix's entries are too large")
        sines = np.divide(d, norms, out=np.zeros_like(d), where=norms > 0.0)
        raise RankDeficient(f"matrix is numerically rank deficient (min_j |R_jj| / ||X_j|| = "
                            f"{sines.min() if d.size else 0.0:.3e})")
    return Q, R


def _solve_triangular(T: np.ndarray, b: np.ndarray, *, lower: bool = False,
                      trans: bool = False) -> np.ndarray:
    """Solve T x = b (T' x = b with ``trans``) for triangular T by LAPACK dtrtrs.

    Dispatches exactly as ``scipy.linalg.solve_triangular`` does, so the
    result is bit-identical to it, without that wrapper's input validation
    and array-API dispatch, which cost several times the LAPACK call on the
    p x p systems of a fit.  dtrtrs expects Fortran order, so a C-ordered T
    is passed transposed with ``lower`` and ``trans`` flipped.
    """
    if not (np.isfinite(T).all() and np.isfinite(b).all()):
        raise NonFinite("triangular system contains NaN or infinite entries")
    if T.flags.f_contiguous:
        x, info = dtrtrs(T, b, lower=lower, trans=trans)
    else:
        x, info = dtrtrs(T.T, b, lower=not lower, trans=not trans)
    if info > 0:
        raise RankDeficient(f"triangular factor is singular at diagonal {info - 1}")
    if info < 0:
        raise DomainError(f"illegal value in argument {-info} of dtrtrs")
    return x


@dataclass(frozen=True, eq=False)
class DataSet:
    """Full design matrix X (n x p, full column rank) and response y (n)."""

    X: np.ndarray
    y: np.ndarray
    n: int = field(init=False)
    p: int = field(init=False)
    # the read-only n x (p+1) stack [y | X] that every sketch kernel applies
    # its projection to, built once per dataset
    yX: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = _as_matrix(self.X)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        _check_finite(X, y)
        n, p = X.shape
        if n <= p:
            raise DomainError(f"need n > p, got n={n}, p={p}")
        if y.shape[0] != n:
            raise DomainError(f"y has length {y.shape[0]}, expected {n}")
        _qr_full_rank(X)  # RankDeficient if X is not full column rank
        yX = np.column_stack([y, X])
        yX.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "yX", yX)

    def with_response(self, y) -> DataSet:
        """A copy with response ``y`` that shares this instance's validated X.

        Only y is checked (finite, length n); X is neither copied nor
        re-factored, so repeated-sampling replicates skip the rank-check QR.
        The copy's stack is this one's with y written over the first column:
        one contiguous copy costs about half of stacking y and X afresh.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        _check_finite(y)
        if y.shape[0] != self.n:
            raise DomainError(f"y has length {y.shape[0]}, expected {self.n}")
        yX = self.yX.copy()
        yX[:, 0] = y
        yX.flags.writeable = False
        new = object.__new__(type(self))
        new.__dict__.update(vars(self), y=y, yX=yX)
        return new


@dataclass(frozen=True, eq=False)
class FullFit:
    """Least-squares solution on the full data with its sum-of-squares split."""

    beta_F: np.ndarray
    SSR_F: float
    SSM_F: float


@dataclass(frozen=True, eq=False)
class ModelTruth:
    """Generative parameters: y ~ N(X beta_0, sigma2 I).

    sigma2 = 0 is tolerated so the noiseless response path stays exact;
    every density and pivot that divides by sigma2 rejects it.
    """

    beta_0: np.ndarray
    sigma2: float

    def __post_init__(self):
        b = np.asarray(self.beta_0, dtype=float).reshape(-1)
        _check_finite(b)
        if self.sigma2 < 0:
            raise DomainError("sigma2 must be nonnegative")
        object.__setattr__(self, "beta_0", b)
        object.__setattr__(self, "sigma2", float(self.sigma2))


def fit_full(data: DataSet) -> FullFit:
    """Full-data least squares via QR; never forms an explicit inverse.

    The residual sum of squares is taken as the squared norm of the
    projection residual y - Q Q^T y, which avoids the cancellation of the
    y'y - SSM identity.
    """
    Q, R = _qr_full_rank(data.X)
    qty = Q.T @ data.y
    beta = np.linalg.solve(R, qty)
    resid = data.y - Q @ qty
    ssr = float(resid @ resid)
    ssm = float(qty @ qty)
    return FullFit(beta_F=beta, SSR_F=ssr, SSM_F=ssm)


def response_mean(X, truth: ModelTruth) -> np.ndarray:
    """The validated response mean X beta_0 (X finite, p columns)."""
    X = _as_matrix(X)
    _check_finite(X)
    if X.shape[1] != truth.beta_0.shape[0]:
        raise DomainError(
            f"X has {X.shape[1]} columns but beta_0 has {truth.beta_0.shape[0]} entries"
        )
    return X @ truth.beta_0


def draw_response(mean: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """Draw y = mean + sigma z with z standard normal, reproducibly.

    ``mean`` comes from ``response_mean``; repeated-sampling runs compute it
    once and call this per replicate.
    """
    if sigma2 == 0.0:  # ModelTruth allows this; keep the noiseless limit exact
        return mean.copy()
    rng = np.random.default_rng(seed)
    return mean + np.sqrt(sigma2) * rng.standard_normal(mean.shape[0])


def simulate_response(X, truth: ModelTruth, seed) -> np.ndarray:
    """Draw y = X beta_0 + sigma z with z standard normal, reproducibly."""
    return draw_response(response_mean(X, truth), truth.sigma2, seed)
