"""Special functions and classical probability laws used by the sketching densities.

Provides the confluent hypergeometric functions M (Kummer's function of the
first kind) and U (second kind), the modified Bessel function of the second
kind K_nu, and a small tag-based interface over the classical distributions
(CDF, quantile, sampling) that the pivotal quantities are referred to.

All density work elsewhere in the package happens in log space; this module
therefore exposes log-scaled variants (``log_kummer_u``, ``log_bessel_k``)
alongside the plain ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats

from .errors import ConvergenceError, DomainError, OverflowSignal

__all__ = [
    "QuadratureSettings",
    "kummer_m",
    "kummer_u",
    "log_kummer_u",
    "bessel_k",
    "bessel_k_scaled",
    "log_bessel_k",
    "Law",
    "chi2",
    "student_t",
    "f_law",
    "beta_law",
    "gamma_law",
    "inv_gamma",
    "normal",
    "noncentral_chi2",
    "noncentral_beta",
    "dist_cdf",
    "dist_quantile",
    "dist_sample",
]

_LOG_DBL_MAX = math.log(np.finfo(float).max)  # ~709.78


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for the adaptive quadrature used by the U-function and densities."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise DomainError("quadrature tolerances must lie in (0, 1)")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be positive")


DEFAULT_QUAD = QuadratureSettings()


# ---------------------------------------------------------------------------
# Kummer M (confluent hypergeometric function of the first kind)
# ---------------------------------------------------------------------------

def _m_series(a: float, b: float, z: float, max_terms: int = 20000) -> float:
    """Power series sum_n (a)_n z^n / ((b)_n n!) with Kahan compensation.

    Intended for z >= 0 (no cancellation when the Pochhammer ratios are
    eventually positive); negative z callers must transform first.
    """
    term = 1.0
    total = 1.0
    comp = 0.0
    for n in range(1, max_terms):
        term *= (a + n - 1.0) * z / ((b + n - 1.0) * n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-17 * abs(total) and n > 4:
            return total
        if not math.isfinite(total):
            raise ConvergenceError(f"M series overflowed at term {n} for z={z}")
    raise ConvergenceError(f"M series did not converge for a={a}, b={b}, z={z}")


def _m_asymptotic_large_neg(a: float, b: float, x: float) -> float:
    """M(a, b, -x) for very large x via the x -> +inf expansion.

    M(a,b,-x) ~ Gamma(b)/Gamma(b-a) * x^{-a} * sum_s (a)_s (a-b+1)_s / (s! x^s),
    truncated at the smallest term.
    """
    if b - a <= 0 and float(b - a).is_integer():
        raise DomainError("asymptotic regime requires b - a not a nonpositive integer")
    lead = special.gammaln(b) - special.gammaln(b - a) - a * math.log(x)
    term = 1.0
    total = 1.0
    prev = abs(term)
    for s in range(1, 60):
        term *= (a + s - 1.0) * (a - b + s) / (s * x)
        if abs(term) >= prev:  # asymptotic series started diverging
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-16 * abs(total):
            break
    sign = math.copysign(1.0, total)
    val = lead + math.log(abs(total))
    if val > _LOG_DBL_MAX:
        return sign * math.inf
    return sign * math.exp(val)


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z) = 1F1(a; b; z).

    Evaluated by the defining power series with Kahan-compensated summation.
    Negative arguments are routed through the Kummer transformation
    M(a,b,z) = e^z M(b-a, b, -z) so the series never alternates, and very
    large |z| switches to the standard asymptotic expansion.

    Relative accuracy is ~1e-13 on the series path (|z| <= ~700).

    Raises
    ------
    DomainError
        If ``b`` is zero or a negative integer (poles of M).
    ConvergenceError
        If the series fails to converge within the term budget.
    """
    a, b, z = float(a), float(b), float(z)
    if b <= 0 and b.is_integer():
        raise DomainError(f"M(a, b, z) has a pole at nonpositive integer b={b}")
    if z == 0.0:
        return 1.0
    if z > 0.0:
        if z > 700.0:
            # leading large-z form, in logs: Gamma(b)/Gamma(a) e^z z^{a-b}
            lead = special.gammaln(b) - special.gammaln(a) + z + (a - b) * math.log(z)
            return math.inf if lead > _LOG_DBL_MAX else math.exp(lead)
        return _m_series(a, b, z)
    # z < 0: Kummer transform keeps every series term positive for b > a.
    x = -z
    if x > 700.0:
        return _m_asymptotic_large_neg(a, b, x)
    return math.exp(z) * _m_series(b - a, b, x)


# ---------------------------------------------------------------------------
# Kummer U (confluent hypergeometric function of the second kind)
# ---------------------------------------------------------------------------

def _u_integrand_peak(a: float, b: float, z: float) -> float:
    """Stationary point of -z t + (a-1) log t + (b-a-1) log(1+t) on (0, inf)."""
    # z t^2 - (b - 2 - z) t - (a - 1) = 0, positive root
    B = b - 2.0 - z
    disc = B * B + 4.0 * z * (a - 1.0)
    if disc < 0.0:
        return 1.0
    root = (B + math.sqrt(disc)) / (2.0 * z)
    return root if root > 0.0 else 1.0


def log_kummer_u(a: float, b: float, z: float,
                 quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """log U(a, b, z) for a > 0, z > 0.

    Uses the Laplace-type integral representation

        U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt,

    mapped onto (0, 1) by t = u/(1-u) and shifted by the integrand peak, so
    the quadrature sees an O(1) integrand regardless of parameter size.
    """
    a, b, z = float(a), float(b), float(z)
    if a <= 0.0 or z <= 0.0:
        raise DomainError(f"log_kummer_u requires a > 0 and z > 0, got a={a}, z={z}")

    def g(t):
        if t <= 0.0:
            return -math.inf
        return -z * t + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t)

    # natural scale: interior stationary point when one exists, otherwise
    # the t ~ a/z scale where the gamma-like mass sits; the substitution
    # t = t0 v/(1-v) centers the peak at v = 1/2 for every parameter size
    t0 = _u_integrand_peak(a, b, z) if a > 1.0 else a / z
    g0 = g(t0)

    def integrand(v):
        if v <= 0.0 or v >= 1.0:
            return 0.0
        one_m = 1.0 - v
        t = t0 * v / one_m
        return math.exp(g(t) - g0) * t0 / (one_m * one_m)

    val, _ = integrate.quad(
        integrand, 0.0, 1.0, points=[0.25, 0.5, 0.75],
        epsabs=quad.abs_tol, epsrel=quad.rel_tol, limit=quad.max_subdivisions,
    )
    if val <= 0.0 or not math.isfinite(val):
        raise ConvergenceError("U-function quadrature failed")
    return g0 + math.log(val) - special.gammaln(a)


def kummer_u(a: float, b: float, z: float,
             quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Tricomi's confluent hypergeometric function U(a, b, z), a > 0, z > 0.

    Computed by adaptive quadrature of the integral representation divided
    by Gamma(a); relative accuracy better than 1e-8 across the parameter
    ranges used by the ratio densities.
    """
    lv = log_kummer_u(a, b, z, quad)
    if lv > _LOG_DBL_MAX:
        raise OverflowSignal("U(a, b, z) overflows; use log_kummer_u")
    return math.exp(lv)


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------

def _log_bessel_k_debye(nu: float, x: float) -> float:
    """Uniform (Debye) asymptotic expansion of log K_nu(x) for large nu."""
    z = x / nu
    r = math.hypot(1.0, z)
    t = 1.0 / r
    eta = r + math.log(z / (1.0 + r))
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - 462.0 * t2 + 385.0 * t2 * t2) / 1152.0
    u3 = t * t2 * (30375.0 - 369603.0 * t2 + 765765.0 * t2 * t2
                   - 425425.0 * t2 * t2 * t2) / 414720.0
    u4 = t2 * t2 * (4465125.0 - 94121676.0 * t2 + 349922430.0 * t2 * t2
                    - 446185740.0 * t2 ** 3 + 185910725.0 * t2 ** 4) / 39813120.0
    series = 1.0 - u1 / nu + u2 / nu ** 2 - u3 / nu ** 3 + u4 / nu ** 4
    return 0.5 * math.log(math.pi / (2.0 * nu)) - nu * eta \
        - 0.25 * math.log1p(z * z) + math.log(series)


def log_bessel_k(nu: float, x: float) -> float:
    """log K_nu(x) for x > 0, robust across magnitudes.

    Delegates to the exponentially scaled routine where the value is
    representable; falls back to the small-argument form K_nu(x) ~
    Gamma(nu)/2 (2/x)^nu and to the uniform large-order asymptotic
    expansion where it is not.
    """
    nu = abs(float(nu))
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"K_nu requires x > 0, got x={x}")
    # small-argument regime: x^2 negligible against the order
    if nu >= 1.0 and x * x <= 1e-14 * (4.0 * max(nu - 1.0, 1.0)):
        return math.log(0.5) + special.gammaln(nu) + nu * math.log(2.0 / x)
    v = special.kve(nu, x)
    if np.isfinite(v) and v > 0.0:
        return math.log(v) - x
    if nu >= 15.0:
        return _log_bessel_k_debye(nu, x)
    # remaining corner: tiny x with small order
    if nu > 0.0:
        return math.log(0.5) + special.gammaln(nu) + nu * math.log(2.0 / x)
    raise ConvergenceError(f"log K_nu out of range for nu={nu}, x={x}")


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    The symmetry K_nu = K_{-nu} is applied structurally.  Raises
    ``OverflowSignal`` when the value exceeds double precision; use
    ``bessel_k_scaled`` or ``log_bessel_k`` in that regime.
    """
    nu = abs(float(nu))
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"K_nu requires x > 0, got x={x}")
    v = special.kv(nu, x)
    if np.isfinite(v):
        return float(v)
    lv = log_bessel_k(nu, x)
    if lv > _LOG_DBL_MAX:
        raise OverflowSignal(
            f"K_{nu}({x}) overflows double precision; use bessel_k_scaled or log_bessel_k"
        )
    return math.exp(lv)


def bessel_k_scaled(nu: float, x: float) -> float:
    """Exponentially scaled Bessel function e^x K_nu(x)."""
    nu = abs(float(nu))
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"K_nu requires x > 0, got x={x}")
    v = special.kve(nu, x)
    if np.isfinite(v):
        return float(v)
    lv = log_bessel_k(nu, x) + x
    if lv > _LOG_DBL_MAX:
        raise OverflowSignal(f"e^x K_{nu}({x}) overflows; use log_bessel_k")
    return math.exp(lv)


# ---------------------------------------------------------------------------
# Classical distributions behind a small tag interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """Tag describing a classical distribution, e.g. Law('chi2', (10.0,))."""

    name: str
    params: tuple

    def __str__(self):
        inner = ", ".join(f"{p:g}" for p in self.params)
        return f"{self.name}({inner})"


def chi2(df: float) -> Law:
    if df <= 0:
        raise DomainError("chi2 requires df > 0")
    return Law("chi2", (float(df),))


def student_t(df: float) -> Law:
    if df <= 0:
        raise DomainError("t requires df > 0")
    return Law("t", (float(df),))


def f_law(d1: float, d2: float) -> Law:
    if d1 <= 0 or d2 <= 0:
        raise DomainError("f requires positive degrees of freedom")
    return Law("f", (float(d1), float(d2)))


def beta_law(a: float, b: float) -> Law:
    if a <= 0 or b <= 0:
        raise DomainError("beta requires positive shape parameters")
    return Law("beta", (float(a), float(b)))


def gamma_law(shape: float, scale: float) -> Law:
    if shape <= 0 or scale <= 0:
        raise DomainError("gamma requires positive shape and scale")
    return Law("gamma", (float(shape), float(scale)))


def inv_gamma(shape: float, scale: float) -> Law:
    if shape <= 0 or scale <= 0:
        raise DomainError("inv_gamma requires positive shape and scale")
    return Law("inv_gamma", (float(shape), float(scale)))


def normal(mu: float, sigma2: float) -> Law:
    if sigma2 <= 0:
        raise DomainError("normal requires sigma2 > 0")
    return Law("normal", (float(mu), float(sigma2)))


def noncentral_chi2(df: float, lam: float) -> Law:
    """Non-central chi-square; sampled as a Poisson mixture of central laws."""
    if df < 0 or lam < 0:
        raise DomainError("noncentral_chi2 requires df >= 0 and lambda >= 0")
    return Law("noncentral_chi2", (float(df), float(lam)))


def noncentral_beta(df1: float, df2: float, lam: float) -> Law:
    """Non-central beta built as U/(U+V), U ~ ncchi2(df1, lam), V ~ chi2(df2).

    Parameters are degrees of freedom of the two chi-square components (not
    the half-df beta shapes).
    """
    if df1 < 0 or df2 <= 0 or lam < 0:
        raise DomainError("noncentral_beta requires df1 >= 0, df2 > 0, lambda >= 0")
    return Law("noncentral_beta", (float(df1), float(df2), float(lam)))


@functools.lru_cache(maxsize=64)
def _frozen(law: Law):
    # a frozen scipy law takes ~0.3-0.7 ms to build, and the same few laws recur
    name, p = law.name, law.params
    if name == "chi2":
        return stats.chi2(p[0])
    if name == "t":
        return stats.t(p[0])
    if name == "f":
        return stats.f(p[0], p[1])
    if name == "beta":
        return stats.beta(p[0], p[1])
    if name == "gamma":
        return stats.gamma(p[0], scale=p[1])
    if name == "inv_gamma":
        return stats.invgamma(p[0], scale=p[1])
    if name == "normal":
        return stats.norm(loc=p[0], scale=math.sqrt(p[1]))
    raise DomainError(f"no closed-form CDF registered for law '{name}'")


def dist_cdf(law: Law, x: float):
    """CDF of a tagged classical law, exact via regularized incomplete functions."""
    return _frozen(law).cdf(x)


def dist_quantile(law: Law, q: float) -> float:
    """Quantile (inverse CDF) of a tagged law for q in (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {q}")
    return float(_frozen(law).ppf(q))


def dist_sample(law: Law, seed, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. samples from a tagged law, reproducible from ``seed``.

    Non-central chi-square is sampled as a Poisson(lambda/2)-mixed central
    chi-square; non-central beta as the chi-square ratio it is defined by.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    name, p = law.name, law.params
    if name == "chi2":
        return rng.chisquare(p[0], count)
    if name == "t":
        return rng.standard_t(p[0], count)
    if name == "f":
        return rng.f(p[0], p[1], count)
    if name == "beta":
        return rng.beta(p[0], p[1], count)
    if name == "gamma":
        return rng.gamma(p[0], p[1], count)
    if name == "inv_gamma":
        return p[1] / rng.gamma(p[0], 1.0, count)
    if name == "normal":
        return p[0] + math.sqrt(p[1]) * rng.standard_normal(count)
    if name == "noncentral_chi2":
        df, lam = p
        j = rng.poisson(lam / 2.0, count)
        return rng.gamma((df + 2.0 * j) / 2.0, 2.0)
    if name == "noncentral_beta":
        df1, df2, lam = p
        j = rng.poisson(lam / 2.0, count)
        u = rng.gamma((df1 + 2.0 * j) / 2.0, 2.0)
        v = rng.chisquare(df2, count)
        return u / (u + v)
    raise DomainError(f"no sampler registered for law '{name}'")
