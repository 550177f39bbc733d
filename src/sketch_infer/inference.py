"""Pivotal quantities, hypothesis tests and confidence intervals for sketched fits.

Two inferential regimes are supported.  Under repeated sketching the data are
fixed and the randomness is the projection; the natural target is the
full-data estimate beta_F.  Under repeated sampling both the response and the
projection are redrawn; the target is the model parameter beta_0.  Several
pivots share one formula across regimes and differ only in which null law
interpretation applies, so a test takes its regime as the ``regime``
argument; every TestResult records that regime, and its ``target`` follows
from it.

Every result takes its p-value from one rule (``_result``).  The library,
the CLI and the simulation harness share one routine per t statistic:
``_t_statistic`` for every marginal (b_j - h_j) / se_j (complete or W*) and
``partial_t_statistic`` for the partial one, whatever the regime.

Testing a coordinate of beta_F equal to zero asks whether the *sample*
estimate is zero, which is not a traditional inferential hypothesis; it is
still useful for flagging coefficients distinguishable from zero, and both
targets are implemented and labeled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core_model import _dot, _first, _scalar, _solve_triangular
from .densities import _check_direction, _gram_cholesky, _ratio_beta, _vector, ssr_s_law_params
from .errors import (
    DegenerateSSR,
    DomainError,
    MissingWStar,
    NegativeDenominator,
    NonFinite,
    ZeroEstimate,
)
from .estimators import FitKind, SketchFit, sigma2_hat_complete
from .sketch_ops import SketchedData
from .special_fn import Law, chi2, dist_cdf, dist_quantile, f_law, student_t

__all__ = [
    "Target",
    "Regime",
    "TestResult",
    "ConfidenceInterval",
    "complete_joint_f_test",
    "complete_marginal_t_tests",
    "marginal_t_statistic",
    "partial_t_statistic",
    "wstar_exact_tests",
    "wstar_marginal_t_tests",
    "complete_sampling_joint_test",
    "partial_univariate_chi2_test",
    "partial_linear_combination_test",
]


class Target(str, enum.Enum):
    BETA_F = "beta_F"
    BETA_0 = "beta_0"


class Regime(str, enum.Enum):
    REPEATED_SKETCH = "repeated_sketch"
    REPEATED_SAMPLE = "repeated_sample"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    pivot_law: Law
    p_value: float
    regime: Regime

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise DomainError(f"p-value {self.p_value} outside [0, 1]")

    @property
    def target(self) -> Target:
        """beta_F under repeated sketching, beta_0 under repeated sampling."""
        return Target.BETA_F if self.regime is Regime.REPEATED_SKETCH else Target.BETA_0


@dataclass(frozen=True)
class ConfidenceInterval:
    coefficient_index: int
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError("interval bounds are reversed")
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must be in (0, 1)")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _result(stat: float, law: Law, regime: Regime, two_sided: bool = True) -> TestResult:
    """The test of ``stat`` referred to ``law``, with c its CDF there: the
    equal-tail p-value min(1, 2 min(c, 1 - c)) when ``two_sided`` (right for
    an asymmetric law too), the upper-tail 1 - c otherwise."""
    c = dist_cdf(law, stat)
    p_value = min(1.0, 2.0 * min(c, 1.0 - c)) if two_sided else 1.0 - c
    return TestResult(statistic=stat, pivot_law=law, p_value=float(p_value), regime=regime)


def _gram_inv_quad(R: np.ndarray, v: np.ndarray) -> float:
    """v' (R'R)^{-1} v via one triangular solve; inf, with no numpy warning,
    where it overflows (a covariate of order 1e-185 makes it ~1e370)."""
    w = _solve_triangular(R, v, trans=True)
    with np.errstate(over="ignore"):
        return _dot(w, w)


def _standard_error(sigma2_hat: float, R: np.ndarray, j: int) -> float:
    """sqrt(sigma2_hat [(R'R)^{-1}]_jj); NonFinite where it underflows to 0
    or overflows, as the t statistic that divides by it would not be finite."""
    e = np.zeros(R.shape[-1])
    e[j] = 1.0
    se = np.sqrt(sigma2_hat * _gram_inv_quad(R, e))
    bad = (se == 0.0) | (se == math.inf)
    if bad.any():
        raise NonFinite(f"the standard error of coefficient {j} "
                        f"{'underflows to 0' if se.flat[_first(bad)] == 0.0 else 'overflows'}")
    return _scalar(se)


def _require_kind(fit: SketchFit, kind: FitKind, op: str) -> None:
    if fit.kind is not kind:
        raise DomainError(f"{op} requires a {kind.value} fit, got {fit.kind.value}")


def _null_vector(fit: SketchFit, beta_hyp) -> np.ndarray:
    """``beta_hyp`` as a float vector, checked to hold one value per coefficient."""
    return _vector(beta_hyp, fit.beta.size, "beta_hyp")


def _roundoff_floor(k: int, total: float) -> float:
    """k eps ``total``: the smallest residual sum of squares worth a pivot.

    A residual sum of squares taken out of a total sum of squares ``total``
    over k-dimensional sketched data carries a roundoff error of order
    k eps ``total`` (times the conditioning of the sketched design).  At the
    floor the residual norm is sqrt(k eps) times the total's, so a pivot
    there keeps about half its digits; below it, as when the sketched design
    fits the response exactly, the residual is roundoff and the pivot
    meaningless.
    """
    return k * np.finfo(float).eps * total


def _require_ssr(fit: SketchFit, k: int) -> float:
    """SSR_s, checked to exceed its roundoff floor k eps ||y_s||^2 (in every
    fit of a stack; the first that does not reports)."""
    ssr = fit.SSR_s
    floor = _roundoff_floor(k, 0.0 if fit.yty_s is None else fit.yty_s)
    if ssr is None:
        raise DegenerateSSR(f"SSR_s = None is at or below its roundoff floor "
                            f"k eps ||y_s||^2 = {floor:.3e}")
    bad = np.less_equal(ssr, floor)
    if bad.any():
        i = _first(bad)
        raise DegenerateSSR(f"SSR_s = {_scalar(np.ravel(ssr)[i])} is at or below its roundoff "
                            f"floor k eps ||y_s||^2 = {np.ravel(floor)[i]:.3e}")
    return ssr


def _finite(compute, what: str) -> float:
    """``compute()``, a joint statistic or its quadratic form, as a float;
    NonFinite naming ``what``, with no numpy warning, where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(compute())
    if not math.isfinite(value):
        raise NonFinite(f"{what} overflows")
    return value


def _numerator(fit: SketchFit, hyp: np.ndarray, what: str) -> float:
    """||R(b - h)||^2 with R ``fit``'s Gram factor: a joint F numerator,
    checked by ``_finite``."""
    return _finite(lambda: np.sum((fit.gram_s_factor @ (fit.beta - hyp)) ** 2), what)


def _t_statistic(fit: SketchFit, sigma2_hat: float, j: int, h_j: float) -> tuple:
    """(b_j - h_j) / se_j and se_j = sqrt(sigma2_hat [(R'R)^{-1}]_jj): the one
    place a marginal t statistic is formed (per fit of a stack)."""
    p = fit.beta.shape[-1]
    if not 0 <= j < p:
        raise DomainError(f"coefficient index {j} outside [0, {p})")
    se = _standard_error(sigma2_hat, fit.gram_s_factor, j)
    return (fit.beta[..., j] - h_j) / se, se


def _marginal_t_tests(fit: SketchFit, sigma2_hat: float, df: int, hyp: np.ndarray,
                      level: float, regime: Regime):
    """Per-coefficient t tests and intervals: (b_j - h_j) / se_j ~ t_df,
    inverted to b_j +- t_{df,(1+level)/2} se_j.  One ``(TestResult,
    ConfidenceInterval)`` pair per coefficient."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    law = student_t(df)
    tq = dist_quantile(law, (1.0 + level) / 2.0)
    pairs = []
    for j, b_j in enumerate(fit.beta.tolist()):
        stat, se = _t_statistic(fit, sigma2_hat, j, hyp[j])
        ci = ConfidenceInterval(coefficient_index=j, lower=b_j - tq * se,
                                upper=b_j + tq * se, level=level)
        pairs.append((_result(float(stat), law, regime), ci))
    return pairs


# ---------------------------------------------------------------------------
# complete sketch
# ---------------------------------------------------------------------------

def complete_joint_f_test(fit: SketchFit, sk: SketchedData, beta_hyp) -> TestResult:
    """Joint F pivot: (b_s - h)'(Xs'Xs)(b_s - h)/p / (SSR_s/(k-p)) ~ F_{p, k-p}.
    A statistic that overflows raises NonFinite."""
    _require_kind(fit, FitKind.COMPLETE, "joint F test")
    k, p = sk.spec.k, sk.p
    ssr = _require_ssr(fit, k)
    quad = _numerator(fit, _null_vector(fit, beta_hyp), "the F numerator ||R(b_s - h)||^2")
    stat = _finite(lambda: (quad / p) / (ssr / (k - p)), "the joint F statistic")
    return _result(stat, f_law(p, k - p), Regime.REPEATED_SKETCH, two_sided=False)


def marginal_t_statistic(fit: SketchFit, sk: SketchedData, j: int, hyp_j: float):
    """Statistic and standard error of the complete-sketch marginal t pivot.

    Cheap building block (no reference-law evaluation) for the simulation
    harness, which passes a stack of fits and sketches: each item's pair is
    bit for bit its own call's, and the stack raises where any item would.
    """
    k, p = sk.spec.k, sk.p
    return _t_statistic(fit, _require_ssr(fit, k) / (k - p), j, hyp_j)


def complete_marginal_t_tests(
    fit: SketchFit, sk: SketchedData, beta_hyp, level: float,
    regime: Regime = Regime.REPEATED_SKETCH,
):
    """Per-coefficient marginal t tests and intervals of the complete sketch.

    (b_sj - h_j) / sqrt(SSR_s/(k-p) [(Xs'Xs)^{-1}]_jj) ~ t_{k-p}: exact for
    beta_F under repeated sketching, and the large-n approximate pivot for
    beta_0 under repeated sampling.  Returns one ``(TestResult,
    ConfidenceInterval)`` pair per coefficient.
    """
    _require_kind(fit, FitKind.COMPLETE, "marginal t tests")
    k, p = sk.spec.k, sk.p
    return _marginal_t_tests(fit, _require_ssr(fit, k) / (k - p), k - p,
                             _null_vector(fit, beta_hyp), level, regime)


# ---------------------------------------------------------------------------
# exact W*-based inference on beta_0 (repeated samples)
# ---------------------------------------------------------------------------

def _wstar_ssr(fit: SketchFit, sk: SketchedData, yty: float, hyp: np.ndarray):
    """F numerator ||R(b* - h)||^2 and null-centered whitened residual SSR*(h).

    With the whitened design L^{-1} Xs = QR (L L^T = W*) the star fit is
    b* = R^{-1} Q^T L^{-1} y_s, so the projection of the whitened null
    residual L^{-1}(y_s - Xs h) is R(b* - h) and
    SSR*(h) = ||y - X h||^2 - ||R(b* - h)||^2, with ``yty`` = ||y - X h||^2.
    A difference of two near-equal sums when the null fits, so it is checked
    against its roundoff floor k eps ``yty``.  A sum that overflows raises
    NonFinite.
    """
    if sk.W_star is None:
        raise MissingWStar("operation requires the W* = S S^T byproduct; re-sketch with want_w_star=True")
    if not math.isfinite(yty):
        raise NonFinite(f"the null-centered sum of squares ||y - X h||^2 = {yty} overflows")
    num = _numerator(fit, hyp, "the F numerator ||R(b* - h)||^2")
    ssr_star = float(yty - num)
    floor = _roundoff_floor(sk.spec.k, yty)
    if ssr_star <= floor:
        raise DegenerateSSR(f"centered SSR* = {ssr_star:.3e} is at or below its roundoff "
                            f"floor k eps y'y = {floor:.3e}")
    return num, ssr_star


def wstar_exact_tests(
    fit: SketchFit, sk: SketchedData, yty: float, beta_hyp, sigma2: float | None = None,
):
    """Exact pivots for beta_0 built from the whitened fit and W*.

    ``yty`` must be the total sum of squares of the null-centered response,
    ||y - X beta_hyp||^2 (plain y'y when testing the zero vector): centering
    is what keeps the residual statistic free of the unknown signal, since
    the sketch row space spans only a k-dimensional slice of it.  Returns
    ``(f_test, chi2_test)`` where the F form is sigma^2-free and the chi2
    form is present only when sigma2 is supplied.
    """
    _require_kind(fit, FitKind.EFFICIENT_STAR, "W* exact tests")
    n, p = sk.n, sk.p
    num, ssr_star = _wstar_ssr(fit, sk, yty, _null_vector(fit, beta_hyp))
    f_res = _result((num / p) / (ssr_star / (n - p)), f_law(p, n - p), Regime.REPEATED_SAMPLE,
                    two_sided=False)
    if sigma2 is None:
        return f_res, None
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    return f_res, _result(num / sigma2, chi2(p), Regime.REPEATED_SAMPLE, two_sided=False)


def wstar_marginal_t_tests(
    fit: SketchFit, sk: SketchedData, yty: float, beta_hyp, level: float,
):
    """Per-coefficient t tests and intervals for beta_0 from the whitened fit and W*.

    Classical inference on the whitened system, exact given S:
    (b*_j - h_j) / sqrt(SSR*/(n-p) [(Xs'W*^{-1}Xs)^{-1}]_jj) ~ t_{n-p}, with
    SSR* null-centered as in wstar_exact_tests (same ``yty``).  Returns one
    ``(TestResult, ConfidenceInterval)`` pair per coefficient.
    """
    _require_kind(fit, FitKind.EFFICIENT_STAR, "W* marginal t tests")
    n, p = sk.n, sk.p
    hyp = _null_vector(fit, beta_hyp)
    ssr_star = _wstar_ssr(fit, sk, yty, hyp)[1]
    return _marginal_t_tests(fit, ssr_star / (n - p), n - p, hyp, level, Regime.REPEATED_SAMPLE)


def complete_sampling_joint_test(
    fit: SketchFit, gram, n: int, k: int, p: int, beta_hyp,
) -> TestResult:
    """Joint test of beta_0 under repeated sampling, referred to its exact law.

    The statistic (b_s - h)'(X'X)(b_s - h)/p over the unbiased variance
    estimate SSR_s k/((n-p)(k-p)) has, under the null, the law mixed_f(p,
    k-p, n-p) of V/(U R) * (n-p)(k-p)/p, V ~ chi2_p, R ~ Beta((k-p+1)/2,
    (n-p)/2) and U the k SSR_s/sigma^2 law independent: (n-p)(k-p)/p times
    ``densities.ratio_beta_law_pdf``'s at phi = p/2.  The p-value is its upper tail.
    The fit must have p coefficients, and ``gram`` (X'X) must be p x p and
    positive definite (DomainError; NonFinite for a NaN or infinite entry).
    A statistic that overflows raises NonFinite.
    """
    _require_kind(fit, FitKind.COMPLETE, "joint sampling test")
    ssr = _require_ssr(fit, k)
    if fit.beta.size != p:
        raise DomainError(f"the fit has {fit.beta.size} coefficients, expected p = {p}")
    gram = np.asarray(gram, dtype=float)
    _gram_cholesky(gram, p)
    hyp = _null_vector(fit, beta_hyp)
    quad = _finite(lambda: (fit.beta - hyp) @ gram @ (fit.beta - hyp),
                   "the joint statistic's quadratic form (b_s - h)'X'X(b_s - h)")
    obs = _finite(lambda: (quad / p) / sigma2_hat_complete(ssr, n, k, p), "the joint statistic")
    p_val = _ratio_beta([obs * p / ((n - p) * (k - p))], p / 2.0, (k - p + 1) / 2.0,
                        (n - p) / 2.0, ssr_s_law_params(n, k, p), tail=True)[0]
    return TestResult(statistic=obs, pivot_law=Law("mixed_f", (float(p), float(k - p), float(n - p))),
                      p_value=float(p_val), regime=Regime.REPEATED_SAMPLE)


# ---------------------------------------------------------------------------
# partial sketch
# ---------------------------------------------------------------------------

def partial_univariate_chi2_test(fit: SketchFit, beta_F_hyp: float, k: int) -> TestResult:
    """Univariate (p = 1) partial pivot (k-2) beta_F / beta_p ~ chi2_k.

    Two-sided p-value by the equal-tail construction, since the reference
    law is asymmetric.  Raises ZeroEstimate when beta_p is exactly zero.
    """
    _require_kind(fit, FitKind.PARTIAL, "univariate chi2 test")
    if fit.beta.size != 1:
        raise DomainError("univariate pivot requires p = 1")
    bp = float(fit.beta[0])
    if bp == 0.0:
        raise ZeroEstimate("partial estimate is exactly zero")
    return _result((k - 2.0) * beta_F_hyp / bp, chi2(k), Regime.REPEATED_SKETCH)


def partial_t_statistic(
    fit: SketchFit, sk: SketchedData, m_vec, regime: Regime = Regime.REPEATED_SKETCH,
) -> float:
    """Statistic of the partial-sketch zero-null t pivot for m'beta.

    m'b_p sqrt{(k-p+1) / (SSM_p gamma m'(Xs'Xs)^{-1}m - (m'b_p)^2 + extra)};
    extra is zero under repeated sketching and, under repeated sampling, the
    unbiased error-variance estimate SSR_s k/((n-p)(k-p)) of the complete fit
    of the same sketch.

    The bare bracket is a Cauchy-Schwarz gap in the (Xs'Xs)^{-1} metric, so
    a non-positive value can only arise from degeneracy or roundoff; it is
    reported as NegativeDenominator rather than clamped, because clamping
    would silently distort the test's calibration.

    A stack of fits and sketches gives each item's statistic bit for bit,
    and raises where any item would (the first such item's error).
    """
    _require_kind(fit, FitKind.PARTIAL, "partial t statistic")
    if fit.SSM_p is None or fit.gamma is None:
        raise DomainError("partial fit is missing SSM_p/gamma")
    k, p = sk.spec.k, sk.p
    m_vec = _vector(m_vec, p, "m")
    extra = (sigma2_hat_complete(_require_ssr(fit, k), sk.n, k, p)
             if regime is Regime.REPEATED_SAMPLE else 0.0)
    R, b = fit.gram_s_factor, fit.beta
    # X^T y = R'R b_p / gamma, formed from R and b_p divided by their largest
    # magnitudes: the same direction, and no overflow however large the data
    rmax, bmax = np.abs(R).max(axis=(-2, -1)), np.abs(b).max(axis=-1)
    Rn, bn = R / rmax[..., None, None], b / np.where(bmax == 0.0, 1.0, bmax)[..., None]
    _check_direction(m_vec, (Rn.mT @ (Rn @ bn[..., None]))[..., 0], "X^T y")
    mb = _dot(m_vec, b)
    bracket = fit.SSM_p * fit.gamma * _gram_inv_quad(R, m_vec) - mb * mb + extra
    bad = bracket <= 0.0
    if bad.any():
        raise NegativeDenominator(f"pivot denominator evaluated {np.ravel(bracket)[_first(bad)]:.3e}"
                                  " <= 0 for this sketch realization")
    return _scalar(mb * np.sqrt((k - p + 1) / bracket))


def partial_linear_combination_test(
    fit: SketchFit, sk: SketchedData, m_vec,
    regime: Regime = Regime.REPEATED_SKETCH,
) -> TestResult:
    """Zero-null test of m'beta via the partial-sketch t pivot (t_{k-p+1}).

    Exact for m'beta_F = 0 under repeated sketching.  Under repeated
    sampling m must not be orthogonal to beta_p, which stands in for the
    unobservable beta_0 direction.  Coefficient j's test takes m = e_j.
    """
    k, p = sk.spec.k, sk.p
    m_arr = np.asarray(m_vec, dtype=float).reshape(-1)
    if regime is Regime.REPEATED_SAMPLE and p >= 2:
        _check_direction(m_arr, fit.beta, "beta_p")
    return _result(partial_t_statistic(fit, sk, m_arr, regime), student_t(k - p + 1), regime)
