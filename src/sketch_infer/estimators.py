"""Sketched estimators and their sum-of-squares quantities.

Complete sketching regresses S y on S X and uses only the sketched data.
Partial sketching combines the sketched Gram matrix with the single-pass
full-data summaries X^T y and y^T y; the estimator carries the inverse-Wishart
mean correction gamma = (k - p - 1)/k that makes it unbiased.  The whitened
("star") estimator additionally uses W* = S S^T.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core_model import DataSet, _dot, _first, _qr_full_rank, _scalar, _solve_triangular
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    GammaNonpositive,
    MissingWStar,
    NonFinite,
    RankDeficient,
)
from .sketch_ops import SketchedData


class FitKind(str, enum.Enum):
    COMPLETE = "complete"
    PARTIAL = "partial"
    EFFICIENT_STAR = "efficient_star"


@dataclass(frozen=True, eq=False)
class SketchFit:
    """Coefficients from a sketched regression.

    ``gram_s_factor`` is the triangular R with R^T R = Xs^T Xs (for the
    whitened estimator: R^T R = Xs^T W*^{-1} Xs).  ``SSR_s`` is the sketched
    residual sum of squares; it is populated for the partial fit as well
    because the repeated-sampling partial test uses it as a variance proxy.
    ``yty_s`` = ||y_s||^2 is the scale that SSR_s is judged against when a
    pivot checks it for degeneracy.  The fit of a stack of sketches holds
    every array and sum with the stack's leading axes.
    """

    beta: np.ndarray
    kind: FitKind
    gram_s_factor: np.ndarray
    SSR_s: float | None = None
    SSM_p: float | None = None
    gamma: float | None = None
    yty_s: float | None = None


@dataclass(frozen=True, eq=False)
class PartialInputs:
    """Single-pass full-data summaries available to the partial sketch.

    An array of yty stacks the summaries of as many responses, each with its
    row of Xty.
    """

    Xty: np.ndarray
    yty: float

    def __post_init__(self):
        yty = np.asarray(self.yty, dtype=float)
        x = np.asarray(self.Xty, dtype=float).reshape(*yty.shape, -1)
        if not (np.isfinite(x).all() and np.isfinite(yty).all()):
            raise NonFinite("partial inputs contain NaN or infinite entries")
        if (yty < 0).any():
            raise DomainError("y^T y must be nonnegative")
        object.__setattr__(self, "Xty", x)
        object.__setattr__(self, "yty", _scalar(yty))

    @classmethod
    def of(cls, data: DataSet) -> PartialInputs:
        """X^T y and y^T y of ``data``, the one place they are formed."""
        # an overflowed sum is reported by __post_init__ as NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            xty, yty = data.X.T @ data.y, float(data.y @ data.y)
        return cls(Xty=xty, yty=yty)

    @classmethod
    def stack(cls, inputs) -> PartialInputs:
        """One PartialInputs whose Xty and yty stack those of ``inputs``; an
        empty list raises ``EmptyInput``, inputs of another p ``DimensionMismatch``."""
        if not inputs:
            raise EmptyInput("cannot stack an empty list of partial inputs")
        shapes = {q.Xty.shape for q in inputs}
        if len(shapes) > 1:
            raise DimensionMismatch(f"cannot stack partial inputs of X^T y shapes {sorted(shapes)}")
        return cls(Xty=np.stack([q.Xty for q in inputs]), yty=np.array([q.yty for q in inputs]))


def _solve_gram(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(R^T R)^{-1} rhs via two triangular solves."""
    return _solve_triangular(R, _solve_triangular(R, rhs, trans=True))


def _complete_solve(sk: SketchedData):
    """R of the sketch's shared QR, Q^T y_s, the complete residual SSR_s and ||y_s||^2.

    SSR_s is the squared norm of the projection residual y_s - Q Q^T y_s,
    never the difference of two large near-equal quantities.  A sum that
    overflows raises NonFinite.  The solve is made once per sketch and kept
    with its QR, so the complete and partial fits of a sketch share it.
    """
    solved = sk.__dict__.get("_complete_solve")
    if solved is not None:
        return solved
    Q, R = sk.qr
    ys = sk.ys[..., None]
    # an overflow in Q^T y_s leaves SSR_s NaN, reported below with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        qty = Q.mT @ ys
        resid = ys - Q @ qty
        ssr, yty_s = _dot(resid[..., 0], resid[..., 0]), _dot(sk.ys, sk.ys)
    bad = ~(np.isfinite(ssr) & np.isfinite(yty_s))
    if bad.any():
        i = _first(bad)
        raise NonFinite(f"the sketched sums of squares overflow (SSR_s = {float(ssr.flat[i])}, "
                        f"||y_s||^2 = {float(yty_s.flat[i])})")
    solved = sk.__dict__["_complete_solve"] = (R, qty[..., 0], _scalar(ssr), _scalar(yty_s))
    return solved


def fit_complete(sk: SketchedData) -> SketchFit:
    """Least squares on the sketched data alone.

    A stack of sketches (``SketchedData.stack``) gives a stack of fits, each
    bit for bit its sketch's own; it raises where any of its sketches would.
    """
    k, p = sk.spec.k, sk.p
    if k <= p:
        raise DomainError(f"complete sketching needs k > p (got k={k}, p={p})")
    R, qty, ssr, yty_s = _complete_solve(sk)
    beta = _solve_triangular(R, qty)
    return SketchFit(
        beta=beta,
        kind=FitKind.COMPLETE,
        gram_s_factor=R,
        SSR_s=ssr,
        yty_s=yty_s,
    )


def fit_partial(sk: SketchedData, partial: PartialInputs) -> SketchFit:
    """Adjusted partial-sketch estimator gamma (Xs^T Xs)^{-1} X^T y.

    Records SSM_p = y^T X beta_p.  SSR_s (from the complete solve on the
    same sketch, sharing its QR) is carried along so callers can form the
    error-variance proxy without re-sketching.  A stack of sketches takes one
    ``partial`` for all of them or a stack of as many, and gives a stack of
    fits, as ``fit_complete`` does.
    """
    k, p = sk.spec.k, sk.p
    if partial.Xty.shape[-1] != p:
        raise DomainError(f"X^T y has length {partial.Xty.shape[-1]}, expected {p}")
    if k <= p + 1:
        raise GammaNonpositive(f"gamma = (k-p-1)/k requires k > p+1 (got k={k}, p={p})")
    gamma = (k - p - 1) / k
    R, _, ssr, yty_s = _complete_solve(sk)
    beta = gamma * _solve_gram(R, partial.Xty)
    ssm_p = _scalar(_dot(partial.Xty, beta))
    return SketchFit(
        beta=beta,
        kind=FitKind.PARTIAL,
        gram_s_factor=R,
        SSR_s=ssr,
        SSM_p=ssm_p,
        gamma=gamma,
        yty_s=yty_s,
    )


def fit_efficient_star(sk: SketchedData) -> SketchFit:
    """Whitened estimator (Xs^T W*^{-1} Xs)^{-1} Xs^T W*^{-1} y_s.

    Solved as ordinary least squares on the Cholesky-whitened system
    L^{-1} Xs = QR, L L^T = W*, so no inverse of W* is ever formed.
    """
    if sk.W_star is None:
        raise MissingWStar("operation requires the W* = S S^T byproduct; re-sketch with want_w_star=True")
    try:
        L = np.linalg.cholesky(sk.W_star)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("W* is not positive definite") from exc
    Q, R = _qr_full_rank(_solve_triangular(L, sk.Xs, lower=True))
    qty = Q.T @ _solve_triangular(L, sk.ys, lower=True)
    beta = _solve_triangular(R, qty)
    return SketchFit(beta=beta, kind=FitKind.EFFICIENT_STAR, gram_s_factor=R)


def sigma2_hat_complete(SSR_s: float, n: int, k: int, p: int) -> float:
    """Unbiased error-variance estimator SSR_s * k / ((n-p)(k-p)), elementwise
    for an array of SSR_s."""
    if n <= p or k <= p:
        raise DomainError(f"need n > p and k > p (got n={n}, k={k}, p={p})")
    if np.any(SSR_s < 0):
        raise DomainError("SSR_s must be nonnegative")
    return SSR_s * k / ((n - p) * (k - p))


def partial_residual_ss_expectation(
    yty: float, SSM_F: float, k: int, p: int, *, second_moment_correction: bool = False
) -> float:
    """Closed-form expectation of the partial-residual sum of squares.

    Evaluates  y'y + SSM_F * { ((k-p-1)(p+1) + c) / ((k-p)(k-p-3)) - 1 }
    with c = 1 by default.  ``second_moment_correction=True`` uses c = 2,
    the constant implied by the inverse-Wishart second-moment identity
    E[B^{-2}] = (k-1) I / ((k-p)(k-p-1)(k-p-3)) for B ~ W_p(k, I); Monte
    Carlo calibration favors the corrected constant (see the adjudication
    tests).
    """
    if k <= p + 3:
        raise DomainError(f"expectation requires k > p + 3 (got k={k}, p={p})")
    c = 2.0 if second_moment_correction else 1.0
    bracket = ((k - p - 1) * (p + 1) + c) / ((k - p) * (k - p - 3)) - 1.0
    return yty + SSM_F * bracket
