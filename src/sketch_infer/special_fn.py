"""Special functions and classical probability laws used by the sketching densities.

Provides the confluent hypergeometric functions M (Kummer's function of the
first kind, from ``scipy.special.hyp1f1``) and U (second kind), the modified
Bessel function of the second kind K_nu, and a small tag-based interface over
the classical distributions (CDF, quantile) that the pivotal quantities are
referred to.

All density work elsewhere in the package happens in log space; U and K
therefore come in log-space forms (``log_kummer_u``, ``log_bessel_k``)
alongside the plain ones.  One Laplace-centred trapezoid rule,
``_log_laplace_integral``, evaluates U and, in ``densities``, M at large
negative argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError, NonFinite, OverflowSignal

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


def _exp(log_value: float, what: str) -> float:
    """exp(log_value) of the log form ``what``: the one exit from log space."""
    if log_value > _LOG_DBL_MAX:
        raise OverflowSignal(f"exp({what}) = exp({log_value:.6g}) overflows double precision")
    return math.exp(log_value)


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
# Laplace-centred trapezoid rule
# ---------------------------------------------------------------------------

def _node_table(half_width: float, count: int) -> tuple:
    """(sinh s_i, cosh s_i * ds) for ``count`` equispaced nodes s_i on [-w, w]."""
    s = np.linspace(-half_width, half_width, count)
    return np.sinh(s), np.cosh(s) * (s[1] - s[0])


# trapezoid rule in s on u = mode + sigma sinh(s), step 1/32 on [-7, 7]:
# exponentially convergent for the smooth single-peaked log-space integrands
# below (Trefethen and Weideman, SIAM Rev. 2014).  The step is set by
# U(a, ~1, z) at small a and z, whose integrand is flat across log(1/z)
# before its e^{-z e^u} edge: a step of 1/12 was 5e-8 off in log
# U(0.5, 0.8, 1e-3).  The range is set by small a with a narrow peak, whose
# t^a tail reaches far below the peak: on [-6, 6] an end term of
# U(0.5, 6000, 5684) was 3e-14 of the sum.
_NODES = _node_table(7.0, 449)
# an end term above this share of the sum means the rule's range cut off mass
_END_SHARE = 1e-15
# largest relative gap allowed between the rule and its every-other-node
# half, which estimates the half rule's error; the full rule's is far smaller
_HALF_RULE_GAP = 1e-7


def _trapezoid_terms(h: np.ndarray, weight: np.ndarray, what: str, *args) -> tuple:
    """(terms, total, top): the terms exp(h - top) * weight of a trapezoid rule
    whose integrand has the exponent values ``h`` on its nodes, top = max h,
    and their sum.  Never returns an unconverged rule: raises
    ConvergenceError naming ``what.format(*args)`` (formatted only then)
    when the sum is not finite and positive, when an end term exceeds
    ``_END_SHARE`` of it (range too narrow) or when the half rule is more
    than ``_HALF_RULE_GAP`` away (step too coarse).
    """
    top = h.max()
    terms = np.exp(h - top) * weight
    total = terms.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise ConvergenceError(f"{what.format(*args)}: trapezoid sum is {total}")
    end = max(terms[0], terms[-1]) / total
    if end > _END_SHARE:
        raise ConvergenceError(f"{what.format(*args)}: trapezoid range too narrow, "
                               f"an end term is {end:.1e} of the sum")
    gap = abs(2.0 * terms[::2].sum() / total - 1.0)
    if gap > _HALF_RULE_GAP:
        raise ConvergenceError(f"{what.format(*args)}: trapezoid step too coarse, "
                               f"the half rule is {gap:.1e} away")
    return terms, total, top


def _log_laplace_integral(h, mode: float, sigma: float) -> float:
    """log of the integral of exp(h(u)) over the real line, h single-peaked.

    ``mode`` is the maximiser of h and ``sigma = (-h''(mode))^{-1/2}`` its
    Laplace width; ``h`` maps an array of u to an array.  Never returns an
    unconverged value: the rule is checked by ``_trapezoid_terms``.
    """
    shift, weight = _NODES
    _, total, top = _trapezoid_terms(h(mode + sigma * shift), weight,
                                     "at mode {}, width {}", mode, sigma)
    return float(top) + math.log(sigma * total)


# mixing nodes whose weight is below this share of the largest one are dropped
_PRUNE = 1e-20


def _mixing_rule(h, sigma: float, nodes: tuple | None, what: str, *args) -> tuple:
    """Offsets v_i and weights q_i (summing to 1) with sum_i q_i f(v_i) ~ E f(V)
    for V with density proportional to exp(h(v)), single-peaked at 0 with
    Laplace width ``sigma``.

    The rule behind mixture laws: every other node of ``nodes`` (None for
    ``_NODES``: ~100 nodes once those below ``_PRUNE`` of the peak weight
    are dropped), checked once per rule by ``_trapezoid_terms`` (``what``
    and ``args`` name the rule in its errors) on the kept rule against its
    own every-other-node half.  ``h`` maps an array of v
    to an array; centring it at the mode keeps the exponent small, so no
    weight overflows.
    """
    shift, weight = _NODES if nodes is None else nodes
    v = sigma * shift[::2]
    with np.errstate(over="ignore"):  # an exponent -> -inf is a zero weight
        terms, total, _ = _trapezoid_terms(h(v), weight[::2], what, *args)
    keep = terms >= _PRUNE * terms.max()
    return v[keep], terms[keep] / terms[keep].sum()


def _chi2_rule(df: float) -> tuple:
    """Nodes w_i and weights q_i (summing to 1) with sum_i q_i f(w_i) ~ E f(chi2_df).

    A ``_mixing_rule`` in u = log w, centred at the mode log df of the chi2
    density in u, exp(df u / 2 - e^u / 2), with its Laplace width
    sqrt(2 / df).
    """
    df = float(df)
    if not (math.isfinite(df) and df > 0.0):
        raise DomainError(f"chi2 mixing rule needs a finite df > 0, got {df}")
    # df u / 2 - e^u / 2 at u = log df + v, less its value at the mode
    v, q = _mixing_rule(lambda v: 0.5 * df * (v - np.expm1(v)), math.sqrt(2.0 / df), None,
                        "chi2({:g}) mixing rule", df)
    return df * np.exp(v), q


# the beta rule's table: _NODES' range at half its step.  A ratio's density at
# large r has its mass in V's far left tail, where the sinh map spaces nodes
# widest: at r = 400 for (phi, kappa, beta) = (2.5, 3, 2) over H(4, 6) every
# other node of _NODES leaves the half rule 2.5e-6 away, this table 1.2e-13
_BETA_NODES = _node_table(7.0, 897)


def _beta_rule(a: float, b: float) -> tuple:
    """Nodes v_i in (0, 1) and weights q_i (summing to 1) with sum_i q_i f(v_i) ~ E f(Beta(a, b)).

    A ``_mixing_rule`` in u = logit v, centred at the mode log(a / b) of the
    beta density in u, exp(a u - (a + b) log(1 + e^u)), with its Laplace
    width sqrt((a + b) / (a b)).
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"beta mixing rule needs finite a, b > 0, got {a}, {b}")
    mode = math.log(a / b)
    # a u - (a + b) log(1 + e^u) at u = mode + v, less its value at the mode
    v, q = _mixing_rule(lambda v: a * v - (a + b) * (_softplus(mode + v) - _softplus(mode)),
                        math.sqrt((a + b) / (a * b)), _BETA_NODES,
                        "beta({:g}, {:g}) mixing rule", a, b)
    return special.expit(mode + v), q


# the t tail rule's range in log(T - a) reaches this far below its mode,
# where the density is below e^-50 of its value at the mode
_TAIL_REACH = 50.0


def _t_tail_rule(df: float, a: float) -> tuple:
    """Nodes d_i > 0 and weights q_i (summing to 1) with
    sum_i q_i f(a + d_i) ~ E[f(T) | T > a] for T ~ t_df.

    A ``_mixing_rule`` in u = log(T - a), where the density is
    exp(u) (1 + T^2 / df)^{-(df + 1) / 2}.  Its mode T* is the positive root
    of df T^2 - (df + 1) a T - df (taken in the form that does not cancel)
    and its Laplace width sigma = T* sqrt((df + 1) / (df (1 + T*^2))).
    Towards T = a the density falls only as e^u, which at a << 0 (sigma
    ~ 1 / |a|) is slow on the scale of sigma: the rule's range, in steps of
    ``_NODES``, reaches at least ``_TAIL_REACH`` below the mode in u.
    """
    df, a = float(df), float(a)
    if not (math.isfinite(df) and df > 0.0 and math.isfinite(a)):
        raise DomainError(f"t tail rule needs a finite df > 0 and a finite bound, got {df}, {a}")
    root = math.sqrt(((df + 1.0) * a) ** 2 + 4.0 * df * df)
    mode = ((df + 1.0) * a + root) / (2.0 * df) if a >= 0.0 else 2.0 * df / (root - (df + 1.0) * a)
    d_mode = mode - a

    def h(v):
        t = a + d_mode * np.exp(v)
        return v - 0.5 * (df + 1.0) * np.log1p(t * t / df)

    sigma = mode * math.sqrt((df + 1.0) / (df * (1.0 + mode * mode)))
    half_width = max(7.0, math.ceil(math.asinh(_TAIL_REACH / sigma)))
    v, q = _mixing_rule(h, sigma, _node_table(half_width, 64 * int(half_width) + 1),
                        "t({:g}) tail rule above {:g}", df, a)
    return d_mode * np.exp(v), q


def _rule_mean(values: np.ndarray, weight: np.ndarray) -> tuple:
    """(values @ weight, gap): the means of ``values`` (rows) under a rule's
    node weights (columns), and the largest distance of a mean from the
    rule's every-other-node half, which estimates the half rule's error.
    """
    mean = values @ weight
    half = values[..., ::2] @ weight[::2] / weight[::2].sum()
    return mean, float(np.max(np.abs(mean - half), initial=0.0))


def _softplus(u: np.ndarray, mirrored: bool = False):
    """log(1 + e^u) elementwise; with ``mirrored``, the pair (log(1 + e^u), log(1 + e^-u)).

    softplus(+-u) = s + max(+-u, 0) with s = log1p(e^{-|u|}) computed once:
    the formula ``np.logaddexp(0, +-u)`` evaluates element by element, here
    in vectorized ufuncs, and it never overflows.  On the rule's 449 nodes
    one sign costs ~70% of one ``logaddexp``, both signs under half of two.
    softplus(-u) is not formed as softplus(u) - u, which cancels at large u.
    The U integrand needs one sign, the M integrand (in ``densities``) both.
    """
    s = np.log1p(np.exp(-np.abs(u)))
    plus = s + np.maximum(u, 0.0)
    if not mirrored:
        return plus
    return plus, s + np.maximum(-u, 0.0)


# ---------------------------------------------------------------------------
# Kummer U (confluent hypergeometric function of the second kind)
# ---------------------------------------------------------------------------

def log_kummer_u(a: float, b: float, z: float) -> float:
    """log U(a, b, z) for a > 0, z > 0.

    Uses the integral representation

        U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt

    in u = log t, where the integrand exp(a u + (b-a-1) log(1+e^u) - z e^u)
    has one peak, by the Laplace-centred trapezoid rule
    ``_log_laplace_integral``.  Against an independent adaptive quadrature
    over 205 parameter sets (the benchmark's ratio-law designs, a < 1,
    a ~ 5000) the error in log U was at most 7.3e-12, the rounding of
    log U itself at |log U| ~ 5e4, and at most 1.5e-14 where |log U| < 100.
    Over a in [0.5, 6000], b in [-5, 6000], z in [1e-3, 1e4] the recurrence
    DLMF 13.3.10 held to 3e-11 in log space.

    Domain: defined for a > 0, z > 0 (DomainError otherwise), and verified
    for a >= 0.5.  Below that the t^a tail can outrun the rule where the
    peak is narrow, which then raises ConvergenceError rather than return
    an unconverged value: U(0.05, 259.6, 228.3) does.
    """
    a, b, z = float(a), float(b), float(z)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise NonFinite(f"log_kummer_u needs finite arguments, got a={a}, b={b}, z={z}")
    if a <= 0.0 or z <= 0.0:
        raise DomainError(f"log_kummer_u requires a > 0 and z > 0, got a={a}, z={z}")
    # peak t of the integrand: z t^2 - 2 m t - a = 0, the positive root in
    # whichever form does not cancel (m is halved so nothing overflows)
    m = 0.5 * (b - 1.0 - z)
    root = math.hypot(m, math.sqrt(z) * math.sqrt(a))
    t = a / (root - m) if m <= 0.0 else (m + root) / z
    # -h''(log t) = (z t^2 + a) / (1 + t), divided through by t when t > 1
    curv = (z * t * t + a) / (1.0 + t) if t < 1.0 else (z * t + a / t) / (1.0 + 1.0 / t)
    sigma = 1.0 / math.sqrt(curv)
    c = b - a - 1.0

    def h(u):
        with np.errstate(over="ignore"):  # e^u -> inf is a zero term
            return a * u + c * _softplus(u) - z * np.exp(u)

    return _log_laplace_integral(h, math.log(t), sigma) - special.gammaln(a)


def kummer_u(a: float, b: float, z: float) -> float:
    """Tricomi's confluent hypergeometric function U(a, b, z), a > 0, z > 0.

    ``exp(log_kummer_u(a, b, z))``: the Laplace-centred trapezoid rule on
    the integral representation, relative error at most ~1e-11 where the
    value is representable (see ``log_kummer_u``).  Raises
    ``OverflowSignal`` beyond double precision; use ``log_kummer_u`` there.
    Shares ``log_kummer_u``'s domain: verified for a >= 0.5; below that a
    narrow peak can raise ``ConvergenceError``.
    """
    return _exp(log_kummer_u(a, b, z), "log_kummer_u")


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

    The exponentially scaled routine where its value is representable; past
    it, the uniform large-order (Debye) expansion for nu >= 15 and the
    small-argument form K_nu(x) ~ Gamma(nu)/2 (2/x)^nu below.  A non-finite
    order or argument raises ``NonFinite``.
    """
    nu = abs(float(nu))
    x = float(x)
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise NonFinite(f"log K_nu needs a finite order and argument, got nu={nu}, x={x}")
    if x <= 0.0:
        raise DomainError(f"K_nu requires x > 0, got x={x}")
    v = special.kve(nu, x)
    if np.isfinite(v) and v > 0.0:
        return math.log(v) - x
    if nu >= 15.0:
        return _log_bessel_k_debye(nu, x)
    if nu > 0.0:
        return math.log(0.5) + special.gammaln(nu) + nu * math.log(2.0 / x)
    raise ConvergenceError(f"log K_nu out of range for nu={nu}, x={x}")


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    ``exp(log_bessel_k(nu, x))``, so K_nu = K_{-nu} holds structurally.
    Raises ``OverflowSignal`` beyond double precision; use ``log_bessel_k``
    there.
    """
    return _exp(log_bessel_k(nu, x), "log_bessel_k")


# ---------------------------------------------------------------------------
# Classical distributions behind a small tag interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """Tag of a classical distribution, e.g. Law('chi2', (10.0,)); parameters
    must be finite and > 0."""

    name: str
    params: tuple

    def __post_init__(self):
        if not all(0 < p < math.inf for p in self.params):  # NaN fails both
            raise DomainError(f"{self.name} requires positive parameters, each finite, "
                              f"got {self.params}")

    def __str__(self):
        # integral parameters print exactly: :g would round t(1234567) to t(1.23457e+06)
        inner = ", ".join(str(int(p)) if float(p).is_integer() else f"{p:g}"
                          for p in self.params)
        return f"{self.name}({inner})"


def chi2(df: float) -> Law:
    return Law("chi2", (float(df),))


def student_t(df: float) -> Law:
    return Law("t", (float(df),))


def f_law(d1: float, d2: float) -> Law:
    return Law("f", (float(d1), float(d2)))


def beta_law(a: float, b: float) -> Law:
    return Law("beta", (float(a), float(b)))


# law name -> (CDF, quantile, support): the scipy.special functions that
# scipy.stats evaluates for these laws, called without building its frozen
# law objects (importing scipy.stats alone takes ~0.5 s)
_LAWS = {
    "t": (special.stdtr, special.stdtrit, (-math.inf, math.inf)),
    "chi2": (special.chdtr, lambda df, q: 2.0 * special.gammaincinv(df / 2.0, q), (0.0, math.inf)),
    "f": (special.fdtr, special.fdtri, (0.0, math.inf)),
    "beta": (special.betainc, special.betaincinv, (0.0, 1.0)),
}


def _t_pdf(df: float, x):
    """Density of t_df at x, in scipy.stats' expression: bit for bit its value."""
    return np.exp(np.log(special.poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
                  - (df + 1) / 2 * np.log1p(x * x / df))


def _law_functions(law: Law) -> tuple:
    try:
        return _LAWS[law.name]
    except KeyError:
        raise DomainError(f"no closed-form CDF registered for law '{law.name}'") from None


def dist_cdf(law: Law, x):
    """CDF of a tagged classical law at x (a number or an array).

    Evaluates the regularized incomplete function of the law through
    ``scipy.special`` at x clipped to the law's support, so x below it gives
    0, x above it 1 and NaN stays NaN: bit for bit what scipy.stats returns.
    """
    cdf, _, (lo, hi) = _law_functions(law)
    return cdf(*law.params, np.clip(x, lo, hi))


def dist_quantile(law: Law, q: float) -> float:
    """Quantile (inverse CDF) of a tagged law for q in (0, 1).

    Inverts the ``scipy.special`` function behind ``dist_cdf``: bit for bit
    scipy.stats' quantile for t, chi2 and F.  For beta it is
    ``special.betaincinv``, which equals scipy.stats' beta quantile for q in
    [1e-6, 1 - 1e-6] and stays exact in the far tails, where scipy.stats'
    own inverse departs: at q = 1e-10 Beta(0.5, 2) has quantile 4.44e-21,
    scipy.stats gives 2.5e-25.
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {q}")
    _, ppf, _ = _law_functions(law)
    return float(ppf(*law.params, q))
