"""Full-data regression quantities that every sketched estimator is judged against."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DomainError, NonFinite, RankDeficient, _float_vector, _real

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


def _check_rank(R: np.ndarray) -> None:
    """Scale-invariant rank check on the R factor of a QR of X.

    |R_jj| is the norm of column j's part orthogonal to the columns before
    it, and ||R[:j+1, j]|| = ||X_j|| its whole norm, so their ratio is the
    sine of the angle between X_j and the earlier columns' span.  It does
    not change when a column is rescaled; each must exceed RANK_TOL.  R may
    carry leading axes (a stack of factors): then the first failing factor
    raises its own error.
    """
    d = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    # hypot overflows only where the norm itself does, not where its square does
    with np.errstate(over="ignore"):
        norms = np.hypot.reduce(R[..., :d.shape[-1]], axis=-2)
    # written so that a NaN fails the test too, as does a non-finite norm
    if d.shape[-1] and (d > RANK_TOL * norms).all():
        return
    if R.ndim > 2:
        _check_rank(R.reshape(-1, *R.shape[-2:])[_first(~(d > RANK_TOL * norms).all(axis=-1))])
    if not np.isfinite(norms).all():
        raise NonFinite("the QR factorization overflowed: the matrix's entries are too large")
    sines = np.divide(d, norms, out=np.zeros_like(d), where=norms > 0.0)
    raise RankDeficient(f"matrix is numerically rank deficient (min_j |R_jj| / ||X_j|| = "
                        f"{sines.min() if d.size else 0.0:.3e})")


def _first(flags) -> int:
    """The flat index of the first true entry of ``flags``: the item of a
    stack that reports the stack's failure."""
    return int(np.argmax(np.reshape(flags, -1)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, per item of any leading axes: each a (1 x n)
    by (n x 1) product, which numpy takes, like a lone a @ b, to one BLAS dot."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar(x):
    """``x`` as a Python float where it has no axes, else as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _qr_full_rank(X: np.ndarray):
    """Economy QR of X, rank-checked by ``_check_rank``."""
    Q, R = np.linalg.qr(X)
    _check_rank(R)
    return Q, R


def _solve_triangular(T: np.ndarray, b: np.ndarray, *, lower: bool = False,
                      trans: bool = False) -> np.ndarray:
    """Solve T x = b (T' x = b with ``trans``) for triangular T by LAPACK dtrtrs.

    Dispatches exactly as ``scipy.linalg.solve_triangular`` does, so the
    result is bit-identical to it, without that wrapper's input validation
    and array-API dispatch, which cost several times the LAPACK call on the
    p x p systems of a fit.  dtrtrs expects Fortran order, so a C-ordered T
    is passed transposed with ``lower`` and ``trans`` flipped.

    T may carry leading axes (a stack of systems), each solved by its own
    dtrtrs call, so every item's x is the one its lone call gives; b then
    carries the same leading axes, or is one vector shared by every system.
    """
    if not (np.isfinite(T).all() and np.isfinite(b).all()):
        raise NonFinite("triangular system contains NaN or infinite entries")
    if T.ndim == 2:
        return _dtrtrs(T, b, lower, trans)
    lead = T.shape[:-2]
    if b.ndim == 1:
        b = np.broadcast_to(b, lead + b.shape)
    x = np.empty(b.shape)
    for i in np.ndindex(lead):
        x[i] = _dtrtrs(T[i], b[i], lower, trans)
    return x


def _dtrtrs(T: np.ndarray, b: np.ndarray, lower: bool, trans: bool) -> np.ndarray:
    """One triangular system of ``_solve_triangular``."""
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
        n, p = X.shape
        y = _float_vector("y", self.y, n)
        _check_finite(X, y)
        if n <= p:
            raise DomainError(f"need n > p, got n={n}, p={p}")
        # RankDeficient if X is not full column rank; R alone, without Q, is
        # the R of the economy QR (one dgeqrf) at half its cost or less
        _check_rank(np.linalg.qr(X, mode="r"))
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
        yX = self.yX.copy()
        new = self._respond(y, yX, yX)
        yX.flags.writeable = False
        return new

    def _respond(self, y, buffer: np.ndarray, yX: np.ndarray) -> DataSet:
        """This dataset with response ``y``, checked and written into column 0
        of ``buffer``, a writable copy of this stack; the result's stack is
        ``yX``, ``buffer`` itself or a view of it."""
        y = _float_vector("y", y, self.n)
        _check_finite(y)
        buffer[:, 0] = y
        new = object.__new__(type(self))
        new.__dict__.update(vars(self), y=y, yX=yX)
        return new


class _ResponseBuffer:
    """``data.with_response`` for one fresh response after another, without
    copying [y | X] for each.

    Every response is written into column 0 of one private writable copy of
    ``data.yX``, which each returned dataset reads through one read-only
    view.  So a returned dataset holds its response only until the next
    call: use it and drop it, and keep nothing that views its ``yX``.
    """

    def __init__(self, data: DataSet):
        self._data = data
        self.array = data.yX.copy()
        self._view = self.array.view()
        self._view.flags.writeable = False

    def with_response(self, y) -> DataSet:
        return self._data._respond(y, self.array, self._view)


@dataclass(frozen=True, eq=False)
class FullFit:
    """Least-squares solution on the full data with its sum-of-squares split."""

    beta_F: np.ndarray
    SSR_F: float
    SSM_F: float


@dataclass(frozen=True, eq=False)
class ModelTruth:
    """Generative parameters: y ~ N(X beta_0, sigma2 I).

    sigma2 must be a finite real >= 0 (a bool is not one).  sigma2 = 0 is
    tolerated so the noiseless response path stays exact; every density and
    pivot that divides by sigma2 rejects it.
    """

    beta_0: np.ndarray
    sigma2: float

    def __post_init__(self):
        b = np.asarray(self.beta_0, dtype=float).reshape(-1)
        _check_finite(b)
        object.__setattr__(self, "beta_0", b)
        object.__setattr__(self, "sigma2", _real("sigma2", self.sigma2, nonnegative=True))


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
    # formed in place: IEEE sums and products commute, so these are the bits
    # of mean + sqrt(sigma2) z, without its temporary
    y = np.random.default_rng(seed).standard_normal(mean.shape[0])
    y *= np.sqrt(sigma2)
    y += mean
    return y


def simulate_response(X, truth: ModelTruth, seed) -> np.ndarray:
    """Draw y = X beta_0 + sigma z with z standard normal, reproducibly."""
    return draw_response(response_mean(X, truth), truth.sigma2, seed)
