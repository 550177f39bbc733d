"""Sampling laws of the sketched estimators and the nonstandard densities behind them.

Everything here is evaluated in log space and exponentiated last, by
``special_fn._exp`` (OverflowSignal past double precision): the normalizing
constants mix gamma functions, Bessel functions and powers whose
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
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .core_model import FullFit, ModelTruth, _dot, _solve_triangular
from .errors import (
    AssumptionViolated,
    ConvergenceError,
    DomainError,
    NegativeVariance,
    NonFinite,
)
from .special_fn import (
    _HALF_RULE_GAP,
    _beta_rule,
    _chi2_rule,
    _exp,
    _t_tail_rule,
    _log_laplace_integral,
    _rule_mean,
    _softplus,
    _t_pdf,
    chi2,
    dist_cdf,
    dist_quantile,
    kummer_m,
    log_bessel_k,
    log_kummer_u,
    student_t,
)

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# symmetric positive definite matrices
# ---------------------------------------------------------------------------

def _content(array) -> tuple:
    """(bytes, shape) of ``array`` as float64 in C order: a memo key of its
    content, never of its identity, so an array changed in place keys afresh."""
    array = np.asarray(array, dtype=float)
    return array.tobytes(), array.shape


def _array(content: bytes, shape: tuple) -> np.ndarray:
    """The read-only array behind a ``_content`` key (a view of its bytes)."""
    return np.frombuffer(content).reshape(shape)


def _cholesky(A: np.ndarray) -> tuple:
    """(L, log det) of a symmetric positive definite float array, L lower
    Cholesky and read-only, as a law's memoized constants share it.  Raises
    NonFinite on a NaN or infinite entry, DomainError unless A is positive
    definite."""
    if not np.isfinite(A).all():
        raise NonFinite("matrix contains NaN or infinite entries")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise DomainError("matrix must be positive definite") from exc
    L.flags.writeable = False
    return L, 2.0 * float(np.sum(np.log(np.diag(L))))


def _gram_cholesky(gram: np.ndarray, p: int) -> tuple:
    """(L, log det) of the Gram matrix X'X, a float array: the one check of a
    Gram matrix, p x p and positive definite (DomainError, or NonFinite for a
    NaN or inf, naming it)."""
    if gram.shape != (p, p):
        raise DomainError(f"Gram matrix must be {p} x {p}, got shape {gram.shape}")
    try:
        return _cholesky(gram)
    except (DomainError, NonFinite) as exc:
        raise type(exc)(f"Gram matrix: {exc}") from exc


def _vector(v, p: int, what: str) -> np.ndarray:
    """``v`` as a float vector, checked to hold p values (DomainError naming ``what``)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != p:
        raise DomainError(f"{what} has length {v.size}, expected {p}")
    return v


def _check_index(j, p: int, what: str) -> None:
    """The one check of a ``what`` index j: an integer (not a bool) in [0, p)."""
    if isinstance(j, bool) or not isinstance(j, numbers.Integral):
        raise DomainError(f"{what} index takes an integer, got {j!r}")
    if not 0 <= j < p:
        raise DomainError(f"{what} index {j} outside [0, {p})")


def _check_design(k, p, k_min: int, n=None, p_min: int = 1) -> None:
    """The one check of a law's design sizes: n (where given), k and p finite
    integers (an integral float is one), with n > p, k >= p + ``k_min`` and
    p >= ``p_min``.  A DomainError names the size at fault.  Plain Python
    comparisons only, as the densities run it once per point.
    """
    if not (type(k) is int and type(p) is int and (n is None or type(n) is int)):
        for name, value in (("n", n), ("k", k), ("p", p)):
            if value is not None and not (
                    isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value) and value == int(value)):
                raise DomainError(f"{name} takes a finite integer, got {value!r}")
    if p < p_min or k < p + k_min or (n is not None and n <= p):
        if p < p_min:
            raise DomainError(f"p must be at least {p_min}, got {p}")
        if k < p + k_min:
            raise DomainError(f"k must be at least p{f' + {k_min}' if k_min else ''} "
                              f"(got k={k}, p={p})")
        raise DomainError(f"n must exceed p (got n={n}, p={p})")


def _check_count(count) -> None:
    """The one check of a sampler's draw count: an integer >= 0 (DomainError naming it)."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
        raise DomainError(f"count takes an integer >= 0, got {count!r}")


def _check_positive(name: str, value) -> None:
    """The one check of a law's shape parameter: a finite real > 0, not a bool
    (DomainError naming it).  A float skips the slower abstract type check,
    as it runs at every point of the ratio law."""
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    if not (real and 0 < value < math.inf):
        raise DomainError(f"{name} must be a finite real > 0, got {value!r}")


def _check_truth(truth: ModelTruth, p: int) -> None:
    """The one check of a sampling law's truth: beta_0 of length p, sigma2 > 0."""
    if truth.beta_0.size != p:  # a vector already: ModelTruth makes it one
        raise DomainError(f"beta_0 has length {truth.beta_0.size}, expected {p}")
    if truth.sigma2 <= 0:
        raise DomainError("a sampling law requires sigma2 > 0")


# ---------------------------------------------------------------------------
# law constants, built once per law content
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4, typed=True)
def _law_constants(build, *key) -> tuple:
    """``build(*key)``: the checked, read-only constants of one law, memoized.

    A density is evaluated point by point at one law, so everything that
    does not depend on the point (its Gram check, gamma functions, logs and
    beta_0'X'X beta_0) is built once for each distinct law content, and
    each point does only its own work.  A grid is evaluated point after
    point at one law, so a few laws at a time suffice; each law holds a
    p x p copy of its matrix (the key's bytes, viewed read-only by its
    constants) and its Cholesky factor.  Keys hold scalars and
    ``_content`` pairs, typed (12 and 12.0 key apart), so the constants are
    always those built from the values given.  A builder factors the array
    behind its key's bytes itself, so a law's matrix is copied and hashed
    once.  Each density runs its scalar checks (design sizes, truth,
    parameters) before it asks.  An error is raised afresh on every call, as
    lru_cache stores no exception.
    """
    return build(*key)


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
        real = isinstance(self.df, numbers.Real) and not isinstance(self.df, bool)
        if not (real and 0 < self.df < math.inf):  # NaN fails both
            raise DomainError(f"df must be finite and positive, got {self.df!r}")
        if S.shape != (loc.size, loc.size):
            raise DomainError("scale matrix shape inconsistent with location")
        if not (np.isfinite(loc).all() and np.isfinite(S).all()):
            raise NonFinite("location and scale matrix must be finite")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "scale_matrix", S)

    @property
    def dim(self) -> int:
        return self.location.size


def _mvt_constants(nu, content: bytes, shape: tuple) -> tuple:
    """(L, log constant) of ``mvt_logpdf``'s law, L the scale matrix's Cholesky
    factor (``MultivariateTParams`` has checked it square)."""
    L, logdet = _cholesky(_array(content, shape))
    p = shape[0]
    return L, float(
        special.gammaln((nu + p) / 2.0)
        - special.gammaln(nu / 2.0)
        - (p / 2.0) * math.log(nu * math.pi)
        - 0.5 * logdet
    )


def mvt_logpdf(params: MultivariateTParams, b) -> float:
    p = params.dim
    nu = params.df
    d = _vector(b, p, "b") - params.location
    L, log_const = _law_constants(_mvt_constants, nu, *_content(params.scale_matrix))
    w = _solve_triangular(L, d, lower=True)
    q = float(w @ w)
    return log_const - (nu + p) / 2.0 * math.log1p(q / nu)


def mvt_pdf(params: MultivariateTParams, b) -> float:
    """Multivariate t density at b."""
    return _exp(mvt_logpdf(params, b), "mvt_logpdf")


def mvt_marginal_cdf(params: MultivariateTParams, j: int, x) -> np.ndarray:
    """CDF of coordinate j, a scaled-shifted t with the same df."""
    _check_index(j, params.dim, "coordinate")
    sd = math.sqrt(params.scale_matrix[j, j])
    return dist_cdf(student_t(params.df), (np.asarray(x, dtype=float) - params.location[j]) / sd)


def complete_sketching_t_params(fullfit: FullFit, gram_inv: np.ndarray, k: int, p: int) -> MultivariateTParams:
    """Law of the complete-sketch estimator over repeated sketches of one dataset:
    t_p(k-p+1, beta_F, (X'X)^{-1} SSR_F / (k-p+1)), for integer k >= p and a
    fit of p coefficients."""
    _check_design(k, p, 0)
    df = k - p + 1
    return MultivariateTParams(
        df=df, location=_vector(fullfit.beta_F, p, "beta_F"),
        scale_matrix=np.asarray(gram_inv) * fullfit.SSR_F / df
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

    def h(u):  # -x expit(u) - a minus - c plus, in place on the ufuncs' own buffers
        plus, minus = _softplus(u, mirrored=True)
        value = special.expit(u)
        value *= -x
        minus *= a
        value -= minus
        plus *= c
        value -= plus
        return value

    return _log_laplace_integral(h, math.log(t) - math.log1p(-t), sigma) - special.betaln(a, c)


def _complete_constants(n, k, p, sigma2, content: bytes, shape: tuple) -> tuple:
    """(gram, log constant, (a + p/2, e)) of ``complete_sampling_logpdf``'s law."""
    gram = _array(content, shape)
    _, logdet = _gram_cholesky(gram, p)
    a = (k - p + 1) / 2.0
    e = (n - p) / 2.0
    log_const = (
        -(p / 2.0) * _LOG_2PI
        + 0.5 * (logdet - p * math.log(sigma2))  # log det of gram / sigma2
        + special.gammaln(a + e)
        + special.gammaln(a + p / 2.0)
        - special.gammaln(a)
        - special.gammaln(a + e + p / 2.0)
    )
    return gram, float(log_const), (a + p / 2.0, e)


def complete_sampling_logpdf(b, truth: ModelTruth, gram, n: int, k: int, p: int) -> float:
    _check_design(k, p, 0, n)
    _check_truth(truth, p)
    gram, log_const, kummer = _law_constants(_complete_constants, n, k, p, truth.sigma2,
                                             *_content(gram))
    d = _vector(b, p, "b") - truth.beta_0
    # a NaN or infinite b, or one whose q overflows, leaves q non-finite;
    # numpy's warning for it is silenced so NonFinite alone reports it
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(d.dot(gram).dot(d)) / truth.sigma2
    if not math.isfinite(q):
        raise NonFinite(f"density evaluation point {b} gives a non-finite quadratic form")
    return log_const + _log_m_neg(*kummer, q / 2.0)


def complete_sampling_pdf(b, truth: ModelTruth, gram, n: int, k: int, p: int) -> float:
    """Density of the complete-sketch estimator over repeated samples.

    The beta-scale normal mixture density, radially symmetric about beta_0
    with Kummer-M kernel M((k+1)/2, (n+k-p+1)/2, -q/2) where q is the
    gram-weighted squared distance over sigma^2.
    """
    return _exp(complete_sampling_logpdf(b, truth, gram, n, k, p), "complete_sampling_logpdf")


# ---------------------------------------------------------------------------
# gamma-conditional-gamma ("H") law and its descendants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HLawParams:
    """Parameters of the law of U where U | V ~ Gamma(alpha, 2V), V ~ Gamma(lam, 2)."""

    alpha: float
    lam: float

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_positive("lam", self.lam)


def _h_constants(a, lam) -> tuple:
    """(log constant, power of u, order of K) of ``h_law_logpdf``'s law."""
    log_const = (1.0 - (lam + a)) * math.log(2.0) - special.gammaln(a) - special.gammaln(lam)
    return float(log_const), (lam + a) / 2.0 - 1.0, a - lam


def h_law_logpdf(u: float, params: HLawParams) -> float:
    if not math.isfinite(u):
        raise NonFinite(f"density evaluation point is not finite: {u}")
    if u <= 0:
        raise DomainError("the H law is supported on (0, inf)")
    log_const, power, order = _law_constants(_h_constants, params.alpha, params.lam)
    return log_const + power * math.log(u) + log_bessel_k(order, math.sqrt(u))


def h_law_pdf(u: float, params: HLawParams) -> float:
    """Density 2^{1-(lam+alpha)}/(Gamma(alpha)Gamma(lam)) u^{(lam+alpha)/2-1} K_{alpha-lam}(sqrt(u)).

    Moments: E[U^m] = 2^{2m} Gamma(m+alpha) Gamma(lam+m) / (Gamma(alpha) Gamma(lam)),
    so in particular E[U] = 4 alpha lam.
    """
    return _exp(h_law_logpdf(u, params), "h_law_logpdf")


def ssr_s_law_params(n: int, k: int, p: int) -> HLawParams:
    _check_design(k, p, 1, n)
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
    return _exp(ssr_s_law_logpdf(u, n, k, p), "ssr_s_law_logpdf")


def _ratio_constants(phi, a, lam) -> tuple:
    """(log constant, power of 1/r, (a, b) of U) of ``ratio_law_logpdf``'s law."""
    log_const = (
        special.gammaln(a + phi)
        + special.gammaln(lam + phi)
        - lam * math.log(2.0)
        - special.gammaln(phi)
        - special.gammaln(a)
        - special.gammaln(lam)
    )
    return float(log_const), lam + 1.0, (lam + phi, lam - a + 1.0)


def ratio_law_logpdf(r: float, phi: float, params: HLawParams) -> float:
    if not math.isfinite(r):
        raise NonFinite(f"density evaluation point is not finite: {r}")
    if r <= 0:
        raise DomainError("the ratio law is supported on (0, inf)")
    _check_positive("phi", phi)
    log_const, power, kummer = _law_constants(_ratio_constants, phi, params.alpha, params.lam)
    return log_const - power * math.log(r) + log_kummer_u(*kummer, 1.0 / (2.0 * r))


def ratio_law_pdf(r: float, phi: float, params: HLawParams) -> float:
    """Density of Q/U with Q ~ Gamma(phi, 2) independent of U ~ H(alpha, lam).

    Kummer-U form with prefactor r^{-(lam+1)}: the ratio inherits tail index
    lam from the lower tail of U, which pins the power (the density
    normalizes under no other exponent).
    """
    return _exp(ratio_law_logpdf(r, phi, params), "ratio_law_logpdf")


def _ratio_beta(r_grid, phi: float, kappa: float, beta_param: float, params: HLawParams,
                tail: bool) -> np.ndarray:
    """The density of ``ratio_beta_law_pdf``'s law at every r, or with ``tail`` P(R >= r).

    With U = W G, W ~ Gamma(lam, 2) and G ~ Gamma(alpha, 2) independent,
    R = Z/(V W) where Z = Q/G is beta-prime(phi, alpha): f(r) =
    E[V W f_Z(r V W)] and P(R >= r) = E[I_{1/(1+r V W)}(alpha, phi)] (the
    tail itself, never 1 - CDF), over (V, W) on the product of
    ``special_fn._beta_rule`` and ``_chi2_rule``.  Raises ConvergenceError
    where the rules give a non-finite or negative value, or where the half rule on either axis is more than ``_HALF_RULE_GAP`` away,
    relative to the density and absolute for the tail.
    """
    r = np.asarray(r_grid, dtype=float).reshape(-1)
    if not (0 < phi < math.inf and np.all(np.isfinite(r) & (r >= 0 if tail else r > 0))):
        raise DomainError(f"ratio-beta law needs phi > 0 and finite r {'>=' if tail else '>'} 0")
    v, qv = _beta_rule(kappa, beta_param)
    w, qw = _chi2_rule(2.0 * params.lam)
    a, log_b = params.alpha, special.betaln(phi, params.alpha)
    log_vw, mean = np.add.outer(np.log(v), np.log(w)), np.empty(r.size)
    with np.errstate(divide="ignore"):  # the tail at r = 0: log z = -inf, I_1 = 1
        log_r = np.log(r)[:, None, None]
    for s in range(0, r.size, 40):  # 40 points x ~2.5e4 nodes: arrays of ~8 MB
        block = slice(s, s + 40)
        log_z = log_r[block] + log_vw
        if tail:
            values = special.betainc(a, phi, special.expit(-log_z))
        else:  # V W f_Z(z) = z^phi (1 + z)^-(phi + alpha) / (B(phi, alpha) r)
            values = np.exp(phi * log_z - (phi + a) * _softplus(log_z) - log_b - log_r[block])
        inner = values @ qw
        mean[block] = m = inner @ qv
        if not np.all(ok := np.isfinite(m) & (m >= 0.0)):  # NaN would pass the gap test below
            raise ConvergenceError(f"ratio-beta rules give {m[~ok][0]} at r = {r[block][~ok][0]:.3g}")
        gap = np.maximum(np.abs(inner[:, ::2] @ qv[::2] / qv[::2].sum() - m),
                         np.abs(values[..., ::2] @ qw[::2] @ qv / qw[::2].sum() - m))
        if np.any(bad := gap > _HALF_RULE_GAP * (1.0 if tail else m)):
            raise ConvergenceError(f"ratio-beta rules too coarse at r = {r[block][bad][0]:.3g}")
    return np.minimum(mean, 1.0) if tail else mean  # the weights sum to 1 only to rounding


def ratio_beta_law_pdf(r_grid, phi: float, kappa: float, beta_param: float, params: HLawParams):
    """Density of R = Q/(V U) on a grid, Q ~ Gamma(phi, 2), V ~ Beta(kappa, beta), U ~ H,
    as a mixture over (V, W) of beta-prime densities (see ``_ratio_beta``)."""
    return _ratio_beta(r_grid, phi, kappa, beta_param, params, tail=False)


# ---------------------------------------------------------------------------
# partial-sketch stochastic representations
# ---------------------------------------------------------------------------

def _check_direction(m_vec: np.ndarray, ref: np.ndarray, what: str) -> None:
    """Reject a zero contrast m, or one parallel to ``ref`` (named ``what``).

    Both vectors are divided by their largest magnitude before the cosine is
    formed, so it cannot overflow, however large their entries.  ``ref`` may
    carry leading axes, a stack of vectors each checked as if alone; a zero
    one is parallel to nothing.
    """
    sm, sr = np.abs(m_vec).max(), np.abs(ref).max(axis=-1)
    if sm == 0.0:
        raise DomainError("contrast vector m must be nonzero")
    zero = sr == 0.0
    u, v = m_vec / sm, ref / np.where(zero, 1.0, sr)[..., None]
    # a zero ref's cosine is 0 / (|u| 1): under the threshold
    cos = np.abs(_dot(u, v)) / (np.hypot.reduce(u) * np.where(zero, 1.0, np.hypot.reduce(v, axis=-1)))
    if (cos >= 1.0 - 1e-12).any():
        raise AssumptionViolated(
            f"m is (numerically) parallel to {what}: the contrast degenerates "
            "(for m = X^T y it equals SSM_p, an inverse-gamma variable, and the "
            "t-form pivot is undefined)"
        )


def _partial_sketching_rep_terms(m_vec, fullfit: FullFit, gram_inv, k: int, p: int) -> tuple:
    """(loc, c) of the representation (loc + c T) / R of m' beta_p over
    repeated sketches (see sample_partial_sketching_rep)."""
    _check_design(k, p, 2)
    m_vec, gram_inv = _vector(m_vec, p, "m"), np.asarray(gram_inv, dtype=float)
    if gram_inv.shape != (p, p):
        raise DomainError(f"(X'X)^-1 must be {p} x {p}, got shape {gram_inv.shape}")
    xty = np.linalg.solve(gram_inv, fullfit.beta_F)
    _check_direction(m_vec, xty, "X^T y")
    loc = float(m_vec @ fullfit.beta_F)
    braced = (fullfit.SSM_F * float(m_vec @ gram_inv @ m_vec) - loc * loc) / (k - p + 2)
    if braced < 0.0:
        raise NegativeVariance(f"variance term evaluated negative ({braced:.3e})")
    return loc, math.sqrt(braced)


def sample_partial_sketching_rep(
    m_vec, fullfit: FullFit, gram_inv, k: int, p: int, count: int, seed,
) -> np.ndarray:
    """Draws of m' beta_p over repeated sketches of a fixed dataset.

    Representation: (m' beta_F + sqrt{(SSM_F m'(X'X)^{-1}m - (m'beta_F)^2)
    /(k-p+2)} T) / R with T ~ t_{k-p+1} and R = chi2_{k-p+1}/(k-p-1)
    independent.  E[1/R] = 1, which is what makes the draws unbiased for
    m' beta_F; the scaling is validated against end-to-end sketching in the
    tests.  Requires m not parallel to X^T y.  ``partial_sketching_law``
    gives the same law exactly.
    """
    _check_count(count)
    loc, c = _partial_sketching_rep_terms(m_vec, fullfit, gram_inv, k, p)
    rng = np.random.default_rng(seed)
    t = rng.standard_t(k - p + 1, count)
    r = rng.chisquare(k - p + 1, count) / (k - p - 1)
    return (loc + c * t) / r


@dataclass(frozen=True, eq=False)
class PartialSketchingLaw:
    """Law of m' beta_p over repeated sketches of a fixed dataset, (loc + c T) / R
    with T ~ t_df and R = chi2_df / kappa independent.

    ``ratio`` holds R at the nodes of its mixing rule and ``weight`` their
    weights, which sum to 1.  ``tail`` is None where the law is evaluated
    over R alone; otherwise, with s = |loc| / c, it holds P(T > -s), the
    nodes of T + s given T > -s and their weights, over which the law is
    evaluated at sign(loc) x > |loc| / max(ratio).
    """

    df: int
    kappa: int
    loc: float
    c: float
    ratio: np.ndarray
    weight: np.ndarray
    tail: tuple | None = None


# a law is evaluated over R alone while its half rule is within this
# distance of it where the integrand is sharpest, a hundredth of the
# distance at which partial_sketching_cdf raises
_R_ORDER_GAP = 1e-2 * _HALF_RULE_GAP


def partial_sketching_law(m_vec, fullfit: FullFit, gram_inv, k: int, p: int) -> PartialSketchingLaw:
    """The exact law behind sample_partial_sketching_rep, as a one-dimensional mixture.

    With T ~ t_{k-p+1} and R = chi2_{k-p+1}/(k-p-1) independent, the CDF is
    an expectation over R or over T, whichever integrand is smooth at x.
    Over R, F(x) = E_R[F_t((x R - loc) / c)] on ``special_fn._chi2_rule``:
    in log R the integrand steps where x R = loc, over a width ~c / |loc|
    against the weights' sqrt(2 / (k-p+1)), so this order serves every x
    while |loc| / c is at most a few times sqrt((k-p+1) / 2), and, at any
    |loc| / c, every x with sign(loc) x <= |loc| / max(R_i), where no node
    sees the step.  Beyond both, with s = |loc| / c and x' = sign(loc) x,
    F(x') = 1 - P(T > -s) E[F_chi2(kappa c (T + s) / x') | T > -s] on
    ``special_fn._t_tail_rule``, whose integrand steps over a width
    ~s sqrt(2 / (k-p+1)) in T: smooth exactly where the other is sharp.
    The law is evaluated over R alone unless that rule's half rule strays
    beyond ``_R_ORDER_GAP`` where its integrand is sharpest.  Same arguments
    and checks as sample_partial_sketching_rep.
    """
    loc, c = _partial_sketching_rep_terms(m_vec, fullfit, gram_inv, k, p)
    df, kappa = k - p + 1, k - p - 1
    w, q = _chi2_rule(df)
    law = PartialSketchingLaw(df=df, kappa=kappa, loc=loc, c=c, ratio=w / kappa, weight=q)
    steps = loc / np.sqrt(law.ratio[1:] * law.ratio[:-1])
    if _partial_sketching_cdf_gap(law, steps)[1] <= _R_ORDER_GAP:
        return law
    s = abs(loc) / c
    return replace(law, tail=(float(special.stdtr(df, s)), *_t_tail_rule(df, -s)))


def _partial_sketching_split(law: PartialSketchingLaw, x) -> tuple:
    """(x, over_t, y): x as an array, the mask of the points evaluated over T
    and, at those points x', the chi2 arguments kappa c (T + s) / x'
    (rows: points; columns: nodes of T)."""
    x = np.asarray(x, dtype=float)
    if law.tail is None:
        return x, np.zeros(x.shape, dtype=bool), None
    xs = math.copysign(1.0, law.loc) * x
    over_t = xs > abs(law.loc) / law.ratio[-1]
    return x, over_t, np.multiply.outer(law.kappa * law.c / xs[over_t], law.tail[1])


def _partial_sketching_pivots(law: PartialSketchingLaw, x) -> np.ndarray:
    """(x R_i - loc) / c for every x (rows) and mixing node i (columns)."""
    z = np.multiply.outer(x, law.ratio)
    z -= law.loc
    z /= law.c
    return z


def _partial_sketching_cdf_gap(law: PartialSketchingLaw, x) -> tuple:
    """The CDF of ``law`` at x and its largest distance from the half rule's."""
    x, over_t, y = _partial_sketching_split(law, x)
    cdf = np.empty(x.shape)
    cdf[~over_t], gap = _rule_mean(dist_cdf(student_t(law.df), _partial_sketching_pivots(
        law, x[~over_t])), law.weight)
    if y is not None:
        prob, _, q = law.tail
        mean, t_gap = _rule_mean(dist_cdf(chi2(law.df), y), q)
        # P(sign(loc) X > x') = P(T > -s) E[F_chi2(y)]
        cdf[over_t] = 1.0 - prob * mean if law.loc > 0.0 else prob * mean
        gap = max(gap, prob * t_gap)
    return (cdf if cdf.ndim else float(cdf)), gap


def partial_sketching_cdf(law: PartialSketchingLaw, x) -> np.ndarray:
    """CDF of ``law`` at x (a number or an array).

    Raises ConvergenceError where the half rule is more than
    ``special_fn._HALF_RULE_GAP`` away: an integrand too sharp for the rule.
    """
    cdf, gap = _partial_sketching_cdf_gap(law, x)
    if gap > _HALF_RULE_GAP:
        raise ConvergenceError(f"beta_p law's rule too coarse at loc / c = {law.loc / law.c:.3g}: "
                               f"the half rule is {gap:.1e} away")
    return cdf


def partial_sketching_pdf(law: PartialSketchingLaw, x) -> np.ndarray:
    """Density of ``law`` at x (a number or an array), at each x in the
    order its CDF takes: sum_i q_i (R_i / c) f_t((x R_i - loc) / c) over R,
    P(T > -s) E[y f_chi2(y)] / |x| over T."""
    x, over_t, y = _partial_sketching_split(law, x)
    pdf = np.empty(x.shape)
    pdf[~over_t] = _t_pdf(law.df, _partial_sketching_pivots(law, x[~over_t])) @ (
        law.weight * law.ratio) / law.c
    if y is not None:
        prob, _, q, half = *law.tail, 0.5 * law.df
        # y f_chi2(y) = (y / 2)^(df / 2) e^(-y / 2) / Gamma(df / 2)
        y_pdf = np.exp(special.xlogy(half, 0.5 * y) - 0.5 * y - special.gammaln(half))
        pdf[over_t] = prob * (y_pdf @ q) / np.abs(x[over_t])
    return pdf if pdf.ndim else float(pdf)


def partial_sketching_quantile(law: PartialSketchingLaw, q):
    """Quantile of ``law`` at level q in (0, 1), or an array of quantiles at a
    sequence of levels, all levels at once.

    The mixture's q-quantile lies between the least and the greatest of its
    components' q-quantiles (loc + c t_q) / R_i.  Newton's method on the
    CDF starts from their weighted mean; each CDF value narrows that
    bracket, and a step that would leave it halves it instead.  It ends
    when every CDF value is within 4 ulp of its level, or when no step
    moves a quantile by more than 4 ulp (a bisection alone would take ~60
    CDF evaluations, this 8 to 10 for the 0.001 and 0.999 quantiles at the
    paper design).
    """
    levels = np.atleast_1d(np.asarray(q, dtype=float))
    tq = np.array([dist_quantile(student_t(law.df), v) for v in levels])
    bracket = (law.loc + law.c * tq)[:, None] / law.ratio
    lo, hi, x = bracket.min(axis=1), bracket.max(axis=1), bracket @ law.weight
    for _ in range(200):
        gap = partial_sketching_cdf(law, x) - levels
        if np.all(np.abs(gap) <= 4.0 * np.spacing(levels)):
            break
        lo, hi = np.where(gap < 0.0, x, lo), np.where(gap < 0.0, hi, x)
        step = x - gap / partial_sketching_pdf(law, x)
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        still = np.abs(step - x) > 4.0 * np.spacing(np.abs(x))
        x = step
        if not still.any():
            break
    return x if np.ndim(q) else float(x[0])


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
    _check_count(count)
    # p >= 2 for the orthogonal-component chi2_{p-1} term
    _check_design(k, p, 2, p_min=2)
    m_vec = _vector(m_vec, p, "m")
    _check_truth(truth, p)
    gram = np.asarray(gram, dtype=float)
    L, _ = _gram_cholesky(gram, p)
    _check_direction(m_vec, truth.beta_0, "beta_0")
    w = _solve_triangular(L, m_vec, lower=True)
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

def _partial_constants(k, p, sigma2, beta_content: bytes, beta_shape: tuple,
                       gram_content: bytes, gram_shape: tuple) -> tuple:
    """(gram, log constant, k gamma beta_0'X'X beta_0 / sigma2, k eta, nu, the
    Bessel factor's s -> 0 limit) of ``partial_approx_logpdf``'s law."""
    gram = _array(gram_content, gram_shape)
    _, logdet = _gram_cholesky(gram, p)
    beta_0 = _array(beta_content, beta_shape)
    gamma = (k - p - 1) / k
    eta = gamma * sigma2
    b0Gb0 = float(beta_0.dot(gram).dot(beta_0))
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
    bess_0 = special.gammaln(nu) + (nu - 1.0) * math.log(2.0)
    return gram, float(log_const), k * gamma * b0Gb0 / sigma2, k * eta, nu, float(bess_0)


def partial_approx_logpdf(b, truth: ModelTruth, gram, k: int, p: int) -> float:
    _check_design(k, p, 2)  # the gamma adjustment needs k > p + 1
    _check_truth(truth, p)
    gram, log_const, tilt, k_eta, nu, bess_0 = _law_constants(
        _partial_constants, k, p, truth.sigma2, *_content(truth.beta_0), *_content(gram))
    b = _vector(b, p, "b")
    with np.errstate(over="ignore", invalid="ignore"):  # as in complete_sampling_logpdf
        bG = b.dot(gram)
        bGb0 = float(bG.dot(truth.beta_0))
        bGb = float(bG.dot(b))
    if not math.isfinite(bGb):
        raise NonFinite(f"density evaluation point {b} gives a non-finite quadratic form")
    q = bGb0 / truth.sigma2  # squared after the division: sigma2**2 can overflow
    s = q * q + tilt
    if not math.isfinite(s):
        raise NonFinite(f"Bessel argument overflows at sigma2={truth.sigma2} (b'X'X beta_0={bGb0})")
    if s <= 0.0 or math.sqrt(s) < 1e-10:
        bess = bess_0
    else:
        bess = log_bessel_k(nu, math.sqrt(s)) + (nu / 2.0) * math.log(s)
    return (
        log_const
        + bGb0 / truth.sigma2
        - (k + 1) / 2.0 * math.log1p(bGb / k_eta)
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
    return _exp(partial_approx_logpdf(b, truth, gram, k, p), "partial_approx_logpdf")


__all__ = [
    "MultivariateTParams",
    "mvt_pdf",
    "mvt_logpdf",
    "mvt_marginal_cdf",
    "complete_sketching_t_params",
    "complete_sampling_pdf",
    "complete_sampling_logpdf",
    "HLawParams",
    "h_law_pdf",
    "h_law_logpdf",
    "ssr_s_law_params",
    "ssr_s_law_pdf",
    "ssr_s_law_logpdf",
    "ratio_law_pdf",
    "ratio_law_logpdf",
    "ratio_beta_law_pdf",
    "sample_partial_sketching_rep",
    "PartialSketchingLaw",
    "partial_sketching_law",
    "partial_sketching_cdf",
    "partial_sketching_pdf",
    "partial_sketching_quantile",
    "sample_partial_sampling_rep",
    "partial_approx_pdf",
    "partial_approx_logpdf",
]
