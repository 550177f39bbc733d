"""Special functions and classical probability laws used by the sketching densities.

Provides the confluent hypergeometric functions M (Kummer's function of the
first kind, from ``scipy.special.hyp1f1``) and U (second kind), the modified
Bessel function of the second kind K_nu, and a small tag-based interface over
the classical distributions (CDF, quantile) that the pivotal quantities are
referred to.

All density work elsewhere in the package happens in log space; U and K
therefore come in log-space forms (``log_kummer_u``, ``log_bessel_k``)
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
    "kummer_m",
    "kummer_u",
    "log_kummer_u",
    "bessel_k",
    "log_bessel_k",
    "Law",
    "chi2",
    "student_t",
    "f_law",
    "beta_law",
    "dist_cdf",
    "dist_quantile",
]

_LOG_DBL_MAX = math.log(np.finfo(float).max)  # ~709.78

# tolerances of the adaptive quadrature behind the U-function
_U_ABS_TOL = 1e-10
_U_REL_TOL = 1e-8
_U_MAX_SUBDIVISIONS = 200


# ---------------------------------------------------------------------------
# Kummer M (confluent hypergeometric function of the first kind)
# ---------------------------------------------------------------------------

def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z) = 1F1(a; b; z).

    Evaluated by ``scipy.special.hyp1f1``; overflow returns ``inf``.

    Raises
    ------
    DomainError
        If ``b`` is zero or a negative integer (poles of M).
    ConvergenceError
        If scipy returns NaN.
    """
    a, b, z = float(a), float(b), float(z)
    if b <= 0 and b.is_integer():
        raise DomainError(f"M(a, b, z) has a pole at nonpositive integer b={b}")
    val = float(special.hyp1f1(a, b, z))
    if math.isnan(val):
        raise ConvergenceError(f"M(a, b, z) did not converge for a={a}, b={b}, z={z}")
    return val


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


def log_kummer_u(a: float, b: float, z: float) -> float:
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
        epsabs=_U_ABS_TOL, epsrel=_U_REL_TOL, limit=_U_MAX_SUBDIVISIONS,
    )
    if val <= 0.0 or not math.isfinite(val):
        raise ConvergenceError("U-function quadrature failed")
    return g0 + math.log(val) - special.gammaln(a)


def kummer_u(a: float, b: float, z: float) -> float:
    """Tricomi's confluent hypergeometric function U(a, b, z), a > 0, z > 0.

    Computed by adaptive quadrature of the integral representation divided
    by Gamma(a); relative accuracy better than 1e-8 across the parameter
    ranges used by the ratio densities.
    """
    lv = log_kummer_u(a, b, z)
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
    ``log_bessel_k`` in that regime.
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
        raise OverflowSignal(f"K_{nu}({x}) overflows double precision; use log_bessel_k")
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
        # integral parameters print exactly: :g would round t(1234567) to t(1.23457e+06)
        inner = ", ".join(str(int(p)) if float(p).is_integer() else f"{p:g}"
                          for p in self.params)
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
