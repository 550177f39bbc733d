"""Sampling laws of the sketched estimators and the nonstandard densities behind them.

Everything here is evaluated in log space and exponentiated last: the
normalizing constants mix gamma functions, Bessel functions and powers whose
intermediate magnitudes overflow double precision at realistic (n, k).

Conventions fixed by Monte-Carlo calibration (each is exercised by the test
suite against end-to-end simulation):

* the complete-estimator sampling density uses the beta-mixture constant
  Gamma(a+e) Gamma(a+p/2) / (Gamma(a) Gamma(a+e+p/2)) with a = (k-p+1)/2,
  e = (n-p)/2, and Kummer argument M(a + p/2, a + e + p/2, -q/2);
* the gamma-conditional-gamma ("H") law describes k * SSR_s / sigma^2;
* the chi-square-over-H ratio density carries r^{-(lambda+1)}, the unique
  power under which it normalizes (the ratio has tail index lambda);
* the partial-sketch scaling variable is R = chi2_{k-p+1} / (k-p-1), the
  unique scaling that reproduces the estimator's unbiasedness.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core_model import FullFit, ModelTruth, _solve_triangular
from .errors import (
    AssumptionViolated,
    ConvergenceError,
    DomainError,
    NegativeVariance,
    NonFinite,
)
from .special_fn import (
    _log_laplace_integral,
    _softplus,
    dist_cdf,
    kummer_m,
    log_bessel_k,
    log_kummer_u,
    student_t,
)

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# symmetric positive definite matrices
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _cholesky(content: bytes, shape: tuple) -> tuple:
    A = np.frombuffer(content).reshape(shape)
    if not np.isfinite(A).all():
        raise NonFinite("matrix contains NaN or infinite entries")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise DomainError("matrix must be positive definite") from exc
    L.flags.writeable = False
    return L, 2.0 * float(np.sum(np.log(np.diag(L))))


def _spd_factor(matrix) -> tuple:
    """(L, log det) of a symmetric positive definite matrix, L lower Cholesky.

    The per-point density kernels see the same Gram or scale matrix at every
    point, so the factorization is memoized on the matrix's content (a
    C-ordered float64 copy of it, never its identity: a matrix changed in
    place is factored afresh), a few matrices at a time.  L is read-only,
    as every caller shares it.  Raises DomainError unless the matrix is
    square and positive definite, NonFinite on a NaN or infinite entry.
    """
    A = np.ascontiguousarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {A.shape}")
    return _cholesky(A.tobytes(), A.shape)


# ---------------------------------------------------------------------------
# multivariate t
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultivariateTParams:
    """Triple (df, location, scale matrix) of a multivariate t law."""

    df: float
    location: np.ndarray
    scale_matrix: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float).reshape(-1)
        S = np.asarray(self.scale_matrix, dtype=float)
        if self.df <= 0:
            raise DomainError("df must be positive")
        if S.shape != (loc.size, loc.size):
            raise DomainError("scale matrix shape inconsistent with location")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "scale_matrix", S)

    @property
    def dim(self) -> int:
        return self.location.size


def mvt_logpdf(params: MultivariateTParams, b) -> float:
    p = params.dim
    nu = params.df
    d = np.asarray(b, dtype=float).reshape(-1) - params.location
    L, logdet = _spd_factor(params.scale_matrix)
    w = _solve_triangular(L, d, lower=True)
    q = float(w @ w)
    return (
        special.gammaln((nu + p) / 2.0)
        - special.gammaln(nu / 2.0)
        - (p / 2.0) * math.log(nu * math.pi)
        - 0.5 * logdet
        - (nu + p) / 2.0 * math.log1p(q / nu)
    )


def mvt_pdf(params: MultivariateTParams, b) -> float:
    """Multivariate t density at b."""
    return math.exp(mvt_logpdf(params, b))


def mvt_marginal_cdf(params: MultivariateTParams, j: int, x) -> np.ndarray:
    """CDF of coordinate j, a scaled-shifted t with the same df."""
    sd = math.sqrt(params.scale_matrix[j, j])
    return dist_cdf(student_t(params.df), (np.asarray(x, dtype=float) - params.location[j]) / sd)


def complete_sketching_t_params(fullfit: FullFit, gram_inv: np.ndarray, k: int, p: int) -> MultivariateTParams:
    """Law of the complete-sketch estimator over repeated sketches of one dataset:
    t_p(k-p+1, beta_F, (X'X)^{-1} SSR_F / (k-p+1))."""
    df = k - p + 1
    if df <= 0:
        raise DomainError("requires k >= p")
    return MultivariateTParams(
        df=df, location=fullfit.beta_F, scale_matrix=np.asarray(gram_inv) * fullfit.SSR_F / df
    )


# ---------------------------------------------------------------------------
# complete estimator over repeated samples
# ---------------------------------------------------------------------------

def _log_m_neg(a: float, c: float, x: float) -> float:
    """log M(a, a + c, -x) for a, c > 0 and x >= 0.

    ``scipy.special.hyp1f1`` below x = 600; beyond it the series route
    overflows and ``_log_m_neg_laplace`` takes over.
    """
    if x < 0:
        raise DomainError("x must be nonnegative")
    if x < 600.0:
        return math.log(kummer_m(a, a + c, -x))
    return _log_m_neg_laplace(a, c, x)


def _log_m_neg_laplace(a: float, c: float, x: float) -> float:
    """log M(a, a + c, -x) as the beta average E[e^{-x T}], T ~ Beta(a, c).

    In u = logit t the integrand exp(-x t + a log t + c log(1-t)) has one
    peak, so the Laplace-centred trapezoid rule of ``special_fn`` applies.
    """
    # peak t: x t^2 - (x + a + c) t + a = 0, the smaller root, in the form
    # that does not cancel; the discriminant (x+a+c)^2 - 4 x a expanded
    root = math.hypot(x - a, math.sqrt(c * (2.0 * (x + a) + c)))
    t = 2.0 * a / (x + a + c + root)
    sigma = 1.0 / math.sqrt(root * t * (1.0 - t))  # -h''(logit t) = root t (1-t)

    def h(u):
        plus, minus = _softplus(u, mirrored=True)
        return -x * special.expit(u) - a * minus - c * plus

    return _log_laplace_integral(h, math.log(t) - math.log1p(-t), sigma) - special.betaln(a, c)


def complete_sampling_logpdf(b, truth: ModelTruth, gram, n: int, k: int, p: int) -> float:
    if truth.sigma2 <= 0:
        raise DomainError("sampling density requires sigma2 > 0")
    if n <= p or k <= p - 1:
        raise DomainError(f"requires n > p and k > p - 1 (got n={n}, k={k}, p={p})")
    gram = np.asarray(gram, dtype=float)
    d = np.asarray(b, dtype=float).reshape(-1) - truth.beta_0
    # a NaN or infinite b, or one whose q overflows, leaves q non-finite;
    # numpy's warning for it is silenced so NonFinite alone reports it
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(d @ gram @ d) / truth.sigma2
    if not math.isfinite(q):
        raise NonFinite(f"density evaluation point {b} gives a non-finite quadratic form")
    a = (k - p + 1) / 2.0
    e = (n - p) / 2.0
    logdet = _spd_factor(gram)[1] - p * math.log(truth.sigma2)  # of gram / sigma2
    log_const = (
        -(p / 2.0) * _LOG_2PI
        + 0.5 * logdet
        + special.gammaln(a + e)
        + special.gammaln(a + p / 2.0)
        - special.gammaln(a)
        - special.gammaln(a + e + p / 2.0)
    )
    return log_const + _log_m_neg(a + p / 2.0, e, q / 2.0)


def complete_sampling_pdf(b, truth: ModelTruth, gram, n: int, k: int, p: int) -> float:
    """Density of the complete-sketch estimator over repeated samples.

    The beta-scale normal mixture density, radially symmetric about beta_0
    with Kummer-M kernel M((k+1)/2, (n+k-p+1)/2, -q/2) where q is the
    gram-weighted squared distance over sigma^2.
    """
    return math.exp(complete_sampling_logpdf(b, truth, gram, n, k, p))


def complete_sampling_approx_t(n: int, k: int, p: int, truth: ModelTruth, gram) -> MultivariateTParams:
    """Large-n t approximation: t_p(k-p+1, beta_0, sigma^2 (n-p)/(k-p+1) (X'X)^{-1}).

    (X'X)^{-1} = L^{-T} L^{-1} from the Cholesky factor of ``gram``, which
    must be positive definite (DomainError; NonFinite for a NaN or infinite
    entry).
    """
    df = k - p + 1
    if df <= 0:
        raise DomainError("requires k >= p")
    L = _spd_factor(gram)[0]
    L_inv = _solve_triangular(L, np.eye(L.shape[0]), lower=True)
    gram_inv = L_inv.T @ L_inv
    scale = truth.sigma2 * (n - p) / df
    return MultivariateTParams(df=df, location=truth.beta_0, scale_matrix=scale * gram_inv)


# ---------------------------------------------------------------------------
# gamma-conditional-gamma ("H") law and its descendants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HLawParams:
    """Parameters of the law of U where U | V ~ Gamma(alpha, 2V), V ~ Gamma(lam, 2)."""

    alpha: float
    lam: float

    def __post_init__(self):
        if self.alpha <= 0 or self.lam <= 0:
            raise DomainError("alpha and lam must be positive")


def h_law_logpdf(u: float, params: HLawParams) -> float:
    if not math.isfinite(u):
        raise NonFinite(f"density evaluation point is not finite: {u}")
    if u <= 0:
        raise DomainError("the H law is supported on (0, inf)")
    a, lam = params.alpha, params.lam
    return (
        (1.0 - (lam + a)) * math.log(2.0)
        - special.gammaln(a)
        - special.gammaln(lam)
        + ((lam + a) / 2.0 - 1.0) * math.log(u)
        + log_bessel_k(a - lam, math.sqrt(u))
    )


def h_law_pdf(u: float, params: HLawParams) -> float:
    """Density 2^{1-(lam+alpha)}/(Gamma(alpha)Gamma(lam)) u^{(lam+alpha)/2-1} K_{alpha-lam}(sqrt(u)).

    Moments: E[U^m] = 2^{2m} Gamma(m+alpha) Gamma(lam+m) / (Gamma(alpha) Gamma(lam)),
    so in particular E[U] = 4 alpha lam.
    """
    return math.exp(h_law_logpdf(u, params))


def h_law_sample(params: HLawParams, seed, count: int) -> np.ndarray:
    """Draw from the H law by its defining gamma mixture."""
    rng = np.random.default_rng(seed)
    v = rng.gamma(params.lam, 2.0, count)
    return rng.gamma(params.alpha, 2.0 * v)


def ssr_s_law_params(n: int, k: int, p: int) -> HLawParams:
    if n <= p or k <= p:
        raise DomainError(f"requires n > p and k > p (got n={n}, k={k}, p={p})")
    return HLawParams(alpha=(k - p) / 2.0, lam=(n - p) / 2.0)


def ssr_s_law_logpdf(u: float, n: int, k: int, p: int) -> float:
    return h_law_logpdf(u, ssr_s_law_params(n, k, p))


def ssr_s_law_pdf(u: float, n: int, k: int, p: int) -> float:
    """Density of U = k * SSR_s / sigma^2 over repeated samples.

    The sketched residual sum of squares satisfies SSR_s | SSR_F ~
    (SSR_F / k) chi2_{k-p} with SSR_F / sigma^2 ~ chi2_{n-p}; multiplying by
    k / sigma^2 puts it exactly in the gamma-conditional-gamma form with
    alpha = (k-p)/2, lam = (n-p)/2.  Mean (k-p)(n-p), consistent with the
    unbiased variance estimator SSR_s k / ((n-p)(k-p)).
    """
    return math.exp(ssr_s_law_logpdf(u, n, k, p))


def ratio_law_logpdf(r: float, phi: float, params: HLawParams) -> float:
    if not math.isfinite(r):
        raise NonFinite(f"density evaluation point is not finite: {r}")
    if r <= 0:
        raise DomainError("the ratio law is supported on (0, inf)")
    if phi <= 0:
        raise DomainError("phi must be positive")
    a, lam = params.alpha, params.lam
    log_const = (
        special.gammaln(a + phi)
        + special.gammaln(lam + phi)
        - lam * math.log(2.0)
        - special.gammaln(phi)
        - special.gammaln(a)
        - special.gammaln(lam)
    )
    return log_const - (lam + 1.0) * math.log(r) + log_kummer_u(lam + phi, lam - a + 1.0, 1.0 / (2.0 * r))


def ratio_law_pdf(r: float, phi: float, params: HLawParams) -> float:
    """Density of Q/U with Q ~ Gamma(phi, 2) independent of U ~ H(alpha, lam).

    Kummer-U form with prefactor r^{-(lam+1)}: the ratio inherits tail index
    lam from the lower tail of U, which pins the power (the density
    normalizes under no other exponent).
    """
    return math.exp(ratio_law_logpdf(r, phi, params))


def ratio_beta_law_pdf(r_grid, phi: float, kappa: float, beta_param: float, params: HLawParams):
    """Density of R = Q/(V U) on a grid, Q ~ Gamma(phi, 2), V ~ Beta(kappa, beta), U ~ H.

    Evaluated by integrating the chi-square-over-H ratio density against the
    beta weight, f(r) = int_0^1 v f_{Q/U}(r v) Beta(v) dv.  Raises
    ConvergenceError when the quadrature fails or yields a non-finite or
    negative value.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0):
        raise DomainError("grid points must be positive")
    if kappa <= 0 or beta_param <= 0:
        raise DomainError("beta parameters must be positive")
    lnB = special.betaln(kappa, beta_param)

    def integrand(v, r):
        return math.exp(
            ratio_law_logpdf(r * v, phi, params)
            + math.log(v) + (kappa - 1.0) * math.log(v)
            + (beta_param - 1.0) * math.log1p(-v) - lnB
        )

    # imported here, its only use: the package loads without scipy.integrate
    from scipy import integrate

    try:
        # quad reports a failed integral by a warning: raise it instead
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            vals = np.array([
                integrate.quad(integrand, 0.0, 1.0, args=(r,), limit=200, epsabs=1e-12,
                               epsrel=1e-9)[0]
                for r in r_grid
            ])
    except (integrate.IntegrationWarning, FloatingPointError) as exc:
        raise ConvergenceError(f"ratio-beta density quadrature failed: {exc}") from exc
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0)):
        raise ConvergenceError("ratio-beta density quadrature gave a non-finite or negative value")
    return vals


# ---------------------------------------------------------------------------
# partial-sketch stochastic representations
# ---------------------------------------------------------------------------

def _check_direction(m_vec: np.ndarray, ref: np.ndarray, what: str) -> None:
    """Reject a zero contrast m, or one parallel to ``ref`` (named ``what``).

    Both vectors are divided by their largest magnitude before the cosine is
    formed, so it cannot overflow, however large their entries.
    """
    sm, sr = np.abs(m_vec).max(), np.abs(ref).max()
    if sm == 0.0:
        raise DomainError("contrast vector m must be nonzero")
    if sr == 0.0:
        return
    u, v = m_vec / sm, ref / sr
    cos = abs(float(u @ v)) / (np.hypot.reduce(u) * np.hypot.reduce(v))
    if cos >= 1.0 - 1e-12:
        raise AssumptionViolated(
            f"m is (numerically) parallel to {what}: the contrast degenerates "
            "(for m = X^T y it equals SSM_p, an inverse-gamma variable, and the "
            "t-form pivot is undefined)"
        )


def sample_partial_sketching_rep(
    m_vec, fullfit: FullFit, gram_inv, k: int, p: int, count: int, seed,
) -> np.ndarray:
    """Draws of m' beta_p over repeated sketches of a fixed dataset.

    Representation: (m' beta_F + sqrt{(SSM_F m'(X'X)^{-1}m - (m'beta_F)^2)
    /(k-p+2)} T) / R with T ~ t_{k-p+1} and R = chi2_{k-p+1}/(k-p-1)
    independent.  E[1/R] = 1, which is what makes the draws unbiased for
    m' beta_F; the scaling is validated against end-to-end sketching in the
    tests.  Requires m not parallel to X^T y.
    """
    m_vec = np.asarray(m_vec, dtype=float).reshape(-1)
    gram_inv = np.asarray(gram_inv, dtype=float)
    if m_vec.size != p or gram_inv.shape != (p, p):
        raise DomainError("m and (X'X)^{-1} must match p")
    if k < p + 2:
        raise DomainError(f"representation requires k >= p + 2 (got k={k}, p={p})")
    xty = np.linalg.solve(gram_inv, fullfit.beta_F)
    _check_direction(m_vec, xty, "X^T y")
    loc = float(m_vec @ fullfit.beta_F)
    braced = (fullfit.SSM_F * float(m_vec @ gram_inv @ m_vec) - loc * loc) / (k - p + 2)
    if braced < 0.0:
        raise NegativeVariance(f"variance term evaluated negative ({braced:.3e})")
    rng = np.random.default_rng(seed)
    t = rng.standard_t(k - p + 1, count)
    r = rng.chisquare(k - p + 1, count) / (k - p - 1)
    return (loc + math.sqrt(braced) * t) / r


def sample_partial_sampling_rep(
    m_vec, truth: ModelTruth, gram, k: int, p: int, count: int, seed,
) -> np.ndarray:
    """Draws of m' beta_p over repeated samples (fresh response and sketch).

    Representation: (k-p-1)/R * (m'beta_0 + sigma sqrt(1 + U/V) tau^{1/2} Z)
    with R ~ chi2_{k-p+1}, Z ~ N(0,1), V ~ chi2_{k-p+2}, U noncentral
    chi2_{p-1} with noncentrality (beta_0'X'X beta_0 - (m'beta_0)^2/tau)
    /sigma^2 and tau = m'(X'X)^{-1}m, all independent.

    The prefactor divides by k-p-1, not k-p+1: E[(k-p-1)/R] = 1 restores the
    estimator's unbiasedness, and the alternative scaling fails the
    end-to-end Kolmogorov-Smirnov check by a wide margin (see tests).
    Requires p >= 2 and m not parallel to beta_0.
    """
    m_vec = np.asarray(m_vec, dtype=float).reshape(-1)
    gram = np.asarray(gram, dtype=float)
    if p < 2:
        raise DomainError("the orthogonal-component chi2_{p-1} term needs p >= 2")
    if m_vec.size != p or gram.shape != (p, p):
        raise DomainError("m and X'X must match p")
    if k < p + 2:
        raise DomainError(f"representation requires k >= p + 2 (got k={k}, p={p})")
    if truth.sigma2 <= 0:
        raise DomainError("requires sigma2 > 0")
    _check_direction(m_vec, truth.beta_0, "beta_0")
    w = _solve_triangular(_spd_factor(gram)[0], m_vec, lower=True)
    tau = float(w @ w)
    mb0 = float(m_vec @ truth.beta_0)
    ncp = (float(truth.beta_0 @ gram @ truth.beta_0) - mb0 * mb0 / tau) / truth.sigma2
    ncp = max(ncp, 0.0)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(count)
    j = rng.poisson(ncp / 2.0, count)
    u = rng.gamma((p - 1 + 2.0 * j) / 2.0, 2.0)
    v = rng.chisquare(k - p + 2, count)
    r = rng.chisquare(k - p + 1, count)
    sigma = math.sqrt(truth.sigma2)
    return (k - p - 1) / r * (mb0 + sigma * np.sqrt(1.0 + u / v) * math.sqrt(tau) * z)


# ---------------------------------------------------------------------------
# approximate partial density over repeated samples
# ---------------------------------------------------------------------------

def partial_approx_logpdf(b, truth: ModelTruth, gram, k: int, p: int) -> float:
    if truth.sigma2 <= 0:
        raise DomainError("requires sigma2 > 0")
    if k <= p + 1:
        raise DomainError(f"gamma adjustment requires k > p + 1 (got k={k}, p={p})")
    gram = np.asarray(gram, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size != p or gram.shape != (p, p):
        raise DomainError("b and X'X must match p")
    gamma = (k - p - 1) / k
    eta = gamma * truth.sigma2
    logdet = _spd_factor(gram)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # as in complete_sampling_logpdf
        bGb0 = float(b @ gram @ truth.beta_0)
        bGb = float(b @ gram @ b)
    if not math.isfinite(bGb):
        raise NonFinite(f"density evaluation point {b} gives a non-finite quadratic form")
    b0Gb0 = float(truth.beta_0 @ gram @ truth.beta_0)
    q = bGb0 / truth.sigma2  # squared after the division: sigma2**2 can overflow
    s = q * q + k * gamma * b0Gb0 / truth.sigma2
    if not math.isfinite(s):
        raise NonFinite(f"Bessel argument overflows at sigma2={truth.sigma2} (b'X'X beta_0={bGb0})")
    nu = (k + 2 - p) / 2.0  # |(p - k - 2)/2|
    log_const = (
        (p - k) / 2.0 * math.log(2.0)
        - (p / 2.0) * math.log(k)
        + special.gammaln((k + 1) / 2.0)
        - special.gammaln((k + 1 - p) / 2.0)
        - special.gammaln((k - p) / 2.0 + 1.0)
        - (p / 2.0) * math.log(math.pi * eta)
        + 0.5 * logdet
    )
    # combined Bessel-and-power factor K_nu(sqrt(s)) * s^{nu/2}; finite limit
    # Gamma(nu) 2^{nu-1} as s -> 0 (the beta_0 = 0 degeneration)
    if s <= 0.0 or math.sqrt(s) < 1e-10:
        bess = special.gammaln(nu) + (nu - 1.0) * math.log(2.0)
    else:
        x = math.sqrt(s)
        bess = log_bessel_k(nu, x) + (nu / 2.0) * math.log(s)
    return (
        log_const
        + bGb0 / truth.sigma2
        - (k + 1) / 2.0 * math.log1p(bGb / (k * eta))
        + bess
    )


def partial_approx_pdf(b, truth: ModelTruth, gram, k: int, p: int) -> float:
    """Approximate density of the partial-sketch estimator over repeated samples.

    A generalized-hyperbolic-type density: exponential tilt e^{b'X'X beta_0
    /sigma^2}, Student-like envelope (1 + b'X'X b/(k gamma sigma^2))^{-(k+1)/2},
    and Bessel factor K_{(k+2-p)/2} whose argument couples b to beta_0.  At
    beta_0 = 0 it collapses exactly to a scaled t_k law; the Bessel factor is
    evaluated jointly with its power so that limit is hit without overflow.
    """
    return math.exp(partial_approx_logpdf(b, truth, gram, k, p))


__all__ = [
    "MultivariateTParams",
    "mvt_pdf",
    "mvt_logpdf",
    "mvt_marginal_cdf",
    "complete_sketching_t_params",
    "complete_sampling_pdf",
    "complete_sampling_logpdf",
    "complete_sampling_approx_t",
    "HLawParams",
    "h_law_pdf",
    "h_law_logpdf",
    "h_law_sample",
    "ssr_s_law_params",
    "ssr_s_law_pdf",
    "ssr_s_law_logpdf",
    "ratio_law_pdf",
    "ratio_law_logpdf",
    "ratio_beta_law_pdf",
    "sample_partial_sketching_rep",
    "sample_partial_sampling_rep",
    "partial_approx_pdf",
    "partial_approx_logpdf",
]
