"""Nonstandard densities: normalization, moments, and end-to-end MC agreement."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from sketch_infer import densities, special_fn
from sketch_infer.core_model import DataSet, ModelTruth, fit_full
from sketch_infer.densities import (
    HLawParams,
    MultivariateTParams,
    _check_direction,
    _cholesky,
    _log_m_neg_laplace,
    _spd_factor,
    complete_sampling_pdf,
    complete_sketching_t_params,
    h_law_pdf,
    mvt_marginal_cdf,
    mvt_pdf,
    partial_approx_pdf,
    partial_sketching_cdf,
    partial_sketching_law,
    partial_sketching_pdf,
    partial_sketching_quantile,
    ratio_beta_law_pdf,
    ratio_law_logpdf,
    ratio_law_pdf,
    sample_partial_sampling_rep,
    sample_partial_sketching_rep,
    ssr_s_law_params,
    ssr_s_law_pdf,
)
from sketch_infer.errors import (
    AssumptionViolated,
    ConvergenceError,
    DomainError,
    NonFinite,
    OverflowSignal,
)
from sketch_infer.estimators import PartialInputs, fit_complete, fit_partial
from sketch_infer.inference import complete_sampling_joint_test
from sketch_infer.sketch_ops import SketchKind, SketchSpec, apply_gaussian, derive_seed

from conftest import ecdf_callable, h_law_sample, ks_distance, make_dataset


def _cdf_from_pdf(pdf, grid):
    """Cumulative quadrature of a 1-d density on a grid, as a KS-ready callable."""
    vals = [integrate.quad(pdf, -np.inf, grid[0], limit=300)[0]]
    for i in range(1, len(grid)):
        vals.append(vals[-1] + integrate.quad(pdf, grid[i - 1], grid[i], limit=200)[0])
    vals = np.asarray(vals)

    def cdf(x):
        return np.clip(np.interp(x, grid, vals), 0.0, 1.0)

    return cdf


def _cdf_from_pdf_positive(pdf, grid):
    vals = [integrate.quad(pdf, 0.0, grid[0], limit=300)[0]]
    for i in range(1, len(grid)):
        vals.append(vals[-1] + integrate.quad(pdf, grid[i - 1], grid[i], limit=200)[0])
    vals = np.asarray(vals)

    def cdf(x):
        return np.clip(np.interp(x, grid, vals), 0.0, 1.0)

    return cdf


class TestMultivariateT:
    def test_univariate_reduction(self):
        params = MultivariateTParams(df=7.0, location=np.array([1.2]),
                                     scale_matrix=np.array([[2.5]]))
        for x in np.linspace(-3, 5, 9):
            num = (mvt_marginal_cdf(params, 0, x + 5e-7) - mvt_marginal_cdf(params, 0, x - 5e-7)) / 1e-6
            assert abs(mvt_pdf(params, [x]) - num) < 1e-6

    def test_bivariate_normalization(self):
        S = np.array([[2.0, 0.6], [0.6, 1.0]])
        params = MultivariateTParams(df=11.0, location=np.array([0.5, -1.0]), scale_matrix=S)
        val, _ = integrate.dblquad(
            lambda y, x: mvt_pdf(params, [x, y]),
            -60, 61, -60, 60, epsabs=1e-9, epsrel=1e-9,
        )
        assert abs(val - 1.0) < 1e-6

    def test_mode_at_location(self):
        params = MultivariateTParams(df=5.0, location=np.array([1.0, 2.0]),
                                     scale_matrix=np.eye(2))
        h = 1e-5
        for d in (np.array([h, 0.0]), np.array([0.0, h])):
            grad = (mvt_pdf(params, params.location + d) - mvt_pdf(params, params.location - d)) / (2 * h)
            assert abs(grad) < 1e-6


class TestCompleteSamplingDensity:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.n, self.k, self.p = 200, 12, 1
        self.X = rng.standard_normal((self.n, 1))
        self.gram = self.X.T @ self.X
        self.truth = ModelTruth(beta_0=np.array([0.7]), sigma2=1.3)

    def _pdf(self, b):
        return complete_sampling_pdf(np.array([b]), self.truth, self.gram,
                                     self.n, self.k, self.p)

    def test_normalizes(self):
        val, _ = integrate.quad(self._pdf, -np.inf, np.inf, limit=400)
        assert abs(val - 1.0) < 1e-6

    def test_radial_symmetry_exact(self):
        for d in (0.1, 0.45, 2.0):
            a = self._pdf(self.truth.beta_0[0] + d)
            b = self._pdf(self.truth.beta_0[0] - d)
            assert abs(a - b) <= 1e-12 * max(a, b)

    def test_matches_stochastic_representation(self):
        # two-stage draw: beta_F ~ N(beta_0, s2 G^-1), SSR_F ~ s2 chi2_{n-p},
        # then the sketching representation with U ~ chi2_{k-p+1}
        rng = np.random.default_rng(7)
        m = 10_000
        n, k, p = self.n, self.k, self.p
        s2 = self.truth.sigma2
        gj = float(self.gram[0, 0])
        beta_F = self.truth.beta_0[0] + math.sqrt(s2 / gj) * rng.standard_normal(m)
        ssr_F = s2 * rng.chisquare(n - p, m)
        U = rng.chisquare(k - p + 1, m)
        Z = rng.standard_normal(m) / math.sqrt(gj)
        draws = beta_F + np.sqrt(ssr_F / U) * Z
        lo, hi = np.quantile(draws, [0.0005, 0.9995])
        cdf = _cdf_from_pdf(self._pdf, np.linspace(lo, hi, 301))
        assert ks_distance(draws, cdf) < 0.02

    def test_beta_mixture_consistency(self):
        # U/(U+V) ~ Beta((k-p+1)/2, (n-p)/2) is the mixing variable behind the density
        rng = np.random.default_rng(8)
        k, n, p = self.k, self.n, self.p
        U = rng.chisquare(k - p + 1, 10_000)
        V = rng.chisquare(n - p, 10_000)
        w = U / (U + V)
        assert ks_distance(w, lambda x: stats.beta.cdf(x, (k - p + 1) / 2, (n - p) / 2)) < 0.02


# (a, c) = ((k+1)/2, (n-p)/2) of the benchmark's three laws-grid designs
# (p = 11) and of the tests' (n, k, p) = (200, 12, 1) and (10^4, 21, 1)
_KUMMER_M_DESIGNS = [(11.0, 4994.5), (25.5, 994.5), (11.0, 94.5), (6.5, 99.5), (11.0, 4999.5)]


class TestKummerMLargeArgumentRoute:
    @pytest.mark.parametrize("a, c", _KUMMER_M_DESIGNS)
    def test_meets_the_series_below_the_switch(self, a, c):
        # _log_m_neg switches from hyp1f1 to the trapezoid rule at x = 600;
        # the two agree across [50, 600], so the switch has no jump
        for x in np.linspace(50.0, 600.0, 23):
            series = math.log(special_fn.kummer_m(a, a + c, -x))
            assert abs(_log_m_neg_laplace(a, c, x) - series) < 1e-10

    def test_short_node_table_raises(self, monkeypatch):
        monkeypatch.setattr(special_fn, "_NODES", special_fn._node_table(1.0, 33))
        with pytest.raises(ConvergenceError):
            _log_m_neg_laplace(11.0, 4994.5, 700.0)


class TestHLaw:
    def test_normalizes(self):
        params = HLawParams(alpha=5.0, lam=9.5)
        val, _ = integrate.quad(lambda u: h_law_pdf(u, params), 0, np.inf, limit=400)
        assert abs(val - 1.0) < 1e-6

    def test_first_moment(self):
        params = HLawParams(alpha=5.0, lam=9.5)
        target = 4.0 * params.alpha * params.lam
        val, _ = integrate.quad(lambda u: u * h_law_pdf(u, params), 0, np.inf,
                                limit=500, epsabs=1e-12, epsrel=1e-12)
        assert abs(val - target) / target < 1e-8

    def test_sampler_matches_pdf(self):
        params = HLawParams(alpha=5.0, lam=9.5)
        draws = h_law_sample(params, seed=3, count=10_000)
        grid = np.geomspace(np.quantile(draws, 0.0005), np.quantile(draws, 0.9995), 301)
        cdf = _cdf_from_pdf_positive(lambda u: h_law_pdf(u, params), grid)
        assert ks_distance(draws, cdf) < 0.02


class TestSsrSLaw:
    def test_normalizes(self):
        n, k, p = 200, 15, 3
        val, _ = integrate.quad(lambda u: ssr_s_law_pdf(u, n, k, p), 0, np.inf, limit=500)
        assert abs(val - 1.0) < 1e-6

    def test_mean_matches_unbiasedness_constant(self):
        n, k, p = 200, 15, 3
        val, _ = integrate.quad(lambda u: u * ssr_s_law_pdf(u, n, k, p), 0, np.inf,
                                limit=500, epsabs=1e-11, epsrel=1e-11)
        assert val == pytest.approx((k - p) * (n - p), rel=1e-8)

    def test_matches_end_to_end_simulation(self):
        # k SSR_s / sigma^2 from actual Gaussian sketches of fresh samples
        n, k, p = 200, 15, 3
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, -2.0, 0.5])
        sigma2 = 1.7
        reps = 10_000
        draws = np.empty(reps)
        for r in range(reps):
            y = X @ beta0 + math.sqrt(sigma2) * rng.standard_normal(n)
            sk = apply_gaussian(DataSet(X=X, y=y),
                                SketchSpec(kind=SketchKind.GAUSSIAN, k=k, seed=derive_seed(2, r)))
            draws[r] = k * fit_complete(sk).SSR_s / sigma2
        grid = np.geomspace(np.quantile(draws, 0.0005), np.quantile(draws, 0.9995), 301)
        cdf = _cdf_from_pdf_positive(lambda u: ssr_s_law_pdf(u, n, k, p), grid)
        assert ks_distance(draws, cdf) < 0.02

    def test_sampler_agrees(self):
        draws = h_law_sample(ssr_s_law_params(200, 15, 3), seed=5, count=50_000)
        assert abs(draws.mean() - 12 * 197) / (12 * 197) < 0.02


class TestRatioLaw:
    def test_normalizes(self):
        params = HLawParams(alpha=4.0, lam=6.0)
        val, _ = integrate.quad(lambda r: ratio_law_pdf(r, 1.5, params), 0, np.inf, limit=500)
        assert abs(val - 1.0) < 1e-5

    def test_matches_mc(self):
        params = HLawParams(alpha=4.0, lam=6.0)
        phi = 1.5
        rng = np.random.default_rng(13)
        q = rng.gamma(phi, 2.0, 10_000)
        u = h_law_sample(params, seed=14, count=10_000)
        draws = q / u
        grid = np.geomspace(np.quantile(draws, 0.0005), np.quantile(draws, 0.9995), 301)
        cdf = _cdf_from_pdf_positive(lambda r: ratio_law_pdf(r, phi, params), grid)
        assert ks_distance(draws, cdf) < 0.02

    def test_sketching_instance_normalizes(self):
        # the instance used by the error-variance pivot: phi = p/2 with the
        # SSR-law parameters; the general form is the authority and must
        # normalize for those parameters too
        n, k, p = 200, 15, 3
        params = HLawParams(alpha=(k - p) / 2.0, lam=(n - p) / 2.0)
        val, _ = integrate.quad(lambda r: ratio_law_pdf(r, p / 2.0, params), 0, np.inf, limit=500)
        assert abs(val - 1.0) < 1e-5


def _law_at(law, point):
    """Evaluate one of the four laws-grid density laws (n, k, p) = (200, 21, 11) at a point."""
    n, k, p = 200, 21, 11
    truth = ModelTruth(beta_0=np.arange(-5.0, 6.0), sigma2=1.0)
    gram = n * np.eye(p)
    b = truth.beta_0.copy()
    b[0] = point
    if law == "complete_sampling_pdf":
        return complete_sampling_pdf(b, truth, gram, n, k, p)
    if law == "partial_approx_pdf":
        return partial_approx_pdf(b, truth, gram, k, p)
    if law == "ssr_s_law_pdf":
        return ssr_s_law_pdf(point, n, k, p)
    return ratio_law_pdf(point, p / 2.0, ssr_s_law_params(n, k, p))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point", [math.nan, math.inf])
@pytest.mark.parametrize("law", ["complete_sampling_pdf", "partial_approx_pdf",
                                 "ssr_s_law_pdf", "ratio_law_pdf"])
def test_non_finite_point_raises(law, point):
    assert math.isfinite(_law_at(law, 1.0))
    with pytest.raises(NonFinite):
        _law_at(law, point)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("law", ["complete_sampling_pdf", "partial_approx_pdf"])
def test_overflowing_quadratic_form_raises(law):
    # a finite b whose quadratic form overflows cannot be evaluated either
    with pytest.raises(NonFinite):
        _law_at(law, 1e200)


def _ratio_beta_draws(m=10_000):
    """Draws of Q/(V U) for (phi, kappa, beta) = (1.5, 3, 2) over H(4, 6)."""
    rng = np.random.default_rng(17)
    q = rng.gamma(1.5, 2.0, m)
    v = rng.beta(3.0, 2.0, m)
    return q / (v * h_law_sample(HLawParams(alpha=4.0, lam=6.0), seed=18, count=m))


def _quad_ratio_beta_pdf(r, phi, kappa, beta_param, params):
    """The ratio-beta density at r by adaptive quadrature with no absolute
    tolerance: the integral over u = logit v, split at the mode of the beta
    weight, of v f_{Q/U}(r v) Beta(v) v (1 - v), where f_{Q/U}, the inner
    integral over U, is the Kummer-U form of ``ratio_law_pdf``."""
    ln_b = special.betaln(kappa, beta_param)

    def f(u):
        log_v, log_1mv = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)
        return math.exp(ratio_law_logpdf(r * math.exp(log_v), phi, params)
                        + (kappa + 1.0) * log_v + beta_param * log_1mv - ln_b)

    mode = math.log(kappa / beta_param)
    width = math.sqrt((kappa + beta_param) / (kappa * beta_param))
    ends = [mode - 200.0 / kappa - 40.0 * width, mode, mode + 200.0 / beta_param + 40.0 * width]
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
               for lo, hi in zip(ends, ends[1:]))


class TestRatioBetaLaw:
    def test_concentrated_beta_degenerates(self):
        params = HLawParams(alpha=4.0, lam=6.0)
        grid = np.geomspace(0.05, 5.0, 25)
        vals = ratio_beta_law_pdf(grid, 1.5, 5000.0, 1.0, params)
        ref = np.array([ratio_law_pdf(r, 1.5, params) for r in grid])
        assert np.all(np.abs(vals - ref) <= 0.02 * np.maximum(ref, ref.max() * 1e-3))

    def test_matches_mc_draws(self):
        params = HLawParams(alpha=4.0, lam=6.0)
        phi, kappa, bparam = 1.5, 3.0, 2.0
        draws = _ratio_beta_draws()
        grid = np.geomspace(np.quantile(draws, 0.0005), np.quantile(draws, 0.9995), 400)
        vals = ratio_beta_law_pdf(grid, phi, kappa, bparam, params)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (vals[1:] + vals[:-1]))])
        lo_mass = integrate.quad(
            lambda r: ratio_beta_law_pdf(np.array([r]), phi, kappa, bparam, params)[0],
            0, grid[0], limit=100)[0]
        cdf_vals = np.clip(lo_mass + cum, 0.0, 1.0)
        assert ks_distance(draws, lambda x: np.interp(x, grid, cdf_vals)) < 0.03

    def test_nonnegative_and_normalized_on_grid(self):
        params = HLawParams(alpha=4.0, lam=6.0)
        grid = np.geomspace(1e-4, 400.0, 1000)
        vals = ratio_beta_law_pdf(grid, 2.5, 3.0, 2.0, params)
        assert np.all(vals >= 0)
        total = np.trapezoid(vals, grid)
        assert abs(total - 1.0) < 1e-3

    # the grids of the three tests above, thinned to every 10th (draws) and
    # every 25th point (down from r = 400, where a quadrature over v in [0, 1]
    # with epsabs=1e-12 is 3.6e-3 off)
    @pytest.mark.parametrize("case", ["concentrated", "draws", "normalized"])
    def test_matches_nested_quadrature(self, case):
        params = HLawParams(alpha=4.0, lam=6.0)
        if case == "concentrated":
            grid, args = np.geomspace(0.05, 5.0, 25), (1.5, 5000.0, 1.0)
        elif case == "draws":
            draws = _ratio_beta_draws()
            grid = np.geomspace(np.quantile(draws, 0.0005), np.quantile(draws, 0.9995), 400)[::10]
            args = (1.5, 3.0, 2.0)
        else:
            grid, args = np.geomspace(1e-4, 400.0, 1000)[::-25], (2.5, 3.0, 2.0)
        vals = ratio_beta_law_pdf(grid, *args, params)
        ref = np.array([_quad_ratio_beta_pdf(r, *args, params) for r in grid])
        np.testing.assert_allclose(vals, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("outcome", ["warning", "nan", "negative"])
    def test_failed_quadrature_raises(self, monkeypatch, outcome):
        # no fallback: a beta rule that fails its half-rule check, or gives a
        # non-finite or negative value, is a ConvergenceError
        rule = densities._beta_rule

        def beta_rule(a, b):
            v, q = rule(a, b)
            if outcome == "warning":  # every 64th node: far too coarse
                return v[::64], q[::64] / q[::64].sum()
            if outcome == "negative":
                return v, -q
            q = q.copy()
            q[q.size // 2] = np.nan
            return v, q

        monkeypatch.setattr(densities, "_beta_rule", beta_rule)
        with pytest.raises(ConvergenceError, match="too coarse" if outcome == "warning" else "give"):
            ratio_beta_law_pdf(np.array([0.5, 1.0]), 1.5, 3.0, 2.0,
                               HLawParams(alpha=4.0, lam=6.0))

    def test_rule_too_coarse_for_the_integrand_raises(self, monkeypatch):
        # every other node of _NODES passes the beta rule's own check, but
        # not the density's at large r, whose mass lies in V's far left tail
        monkeypatch.setattr(special_fn, "_BETA_NODES", special_fn._NODES)
        params = HLawParams(alpha=4.0, lam=6.0)
        ratio_beta_law_pdf(np.array([1.0, 50.0]), 2.5, 3.0, 2.0, params)
        with pytest.raises(ConvergenceError, match="too coarse at r = 400"):
            ratio_beta_law_pdf(np.array([1.0, 400.0]), 2.5, 3.0, 2.0, params)


class TestPartialSketchingRep:
    def setup_method(self):
        self.data = make_dataset(300, 3, [1.0, -2.0, 0.5], seed=19)
        self.full = fit_full(self.data)
        self.gram_inv = np.linalg.inv(self.data.X.T @ self.data.X)
        self.k, self.p = 15, 3

    def test_matches_direct_sketching(self):
        m_vec = np.array([0.0, 1.0, 0.0])
        rep = sample_partial_sketching_rep(m_vec, self.full, self.gram_inv,
                                           self.k, self.p, 100_000, seed=23)
        pin = PartialInputs(Xty=self.data.X.T @ self.data.y, yty=float(self.data.y @ self.data.y))
        direct = np.empty(10_000)
        for r in range(direct.size):
            sk = apply_gaussian(self.data, SketchSpec(kind=SketchKind.GAUSSIAN, k=self.k,
                                                      seed=derive_seed(29, r)))
            direct[r] = fit_partial(sk, pin).beta[1]
        assert ks_distance(direct, ecdf_callable(rep)) < 0.02

    def test_unbiased(self):
        m_vec = np.array([1.0, 1.0, -1.0])
        rep = sample_partial_sketching_rep(m_vec, self.full, self.gram_inv,
                                           self.k, self.p, 200_000, seed=31)
        target = float(m_vec @ self.full.beta_F)
        se = rep.std() / math.sqrt(rep.size)
        assert abs(rep.mean() - target) < 3 * se

    def test_direction_check_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _check_direction(np.array([1.0, 0.0]), np.array([1e200, 1e200]), "X^T y")
            with pytest.raises(AssumptionViolated):
                _check_direction(np.array([-1.0, -1.0]), np.array([1e200, 1e200]), "X^T y")

    def test_rejects_parallel_contrast(self):
        xty = self.data.X.T @ self.data.y
        with pytest.raises(AssumptionViolated):
            sample_partial_sketching_rep(xty, self.full, self.gram_inv,
                                         self.k, self.p, 10, seed=0)
        with pytest.raises(AssumptionViolated):
            sample_partial_sketching_rep(-2.0 * xty, self.full, self.gram_inv,
                                         self.k, self.p, 10, seed=0)


def _nested_quad_cdf(law, x, k, p):
    """P((loc + c T) / R <= x) by adaptive quadrature over R of an adaptive
    quadrature of the t density: shares no code with partial_sketching_cdf."""
    nu, kappa = law.df, k - p - 1
    log_t = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(nu * math.pi)
    log_w = -math.lgamma(nu / 2) - nu / 2 * math.log(2.0)

    def t_pdf(s):
        return math.exp(log_t - (nu + 1) / 2 * math.log1p(s * s / nu))

    def outer(w):  # w ~ chi2_nu, R = w / kappa
        z = (x * w / kappa - law.loc) / law.c
        tol = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
        # a finite range: beyond |t| = 10^3 the t_nu tail is below 1e-25 here
        inner = (integrate.quad(t_pdf, -1e3, z, **tol)[0] if z <= 0.0
                 else 1.0 - integrate.quad(t_pdf, z, 1e3, **tol)[0])
        return inner * math.exp(log_w + (nu / 2 - 1) * math.log(w) - w / 2)

    # the inner CDF steps where z = 0, sharply when |loc| >> c: a breakpoint there
    ends = [0.0, nu, 20.0 * nu + 400.0]
    if x != 0.0 and 0.0 < kappa * law.loc / x < ends[-1]:
        ends.append(kappa * law.loc / x)
    ends = sorted(set(ends))
    return sum(integrate.quad(outer, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in zip(ends, ends[1:]))


def _ks_upper_bound(draws, cdf, stride: int) -> float:
    """An upper bound on the KS distance of ``draws`` to ``cdf`` from the CDF at
    every ``stride``-th order statistic only.  Between two such points g < g'
    the empirical CDF lies in [Fn(g), Fn(g'-)] and the CDF in [F(g), F(g')],
    both being nondecreasing, so Fn - F <= Fn(g'-) - F(g) and
    F - Fn <= F(g') - Fn(g) there; the bound exceeds the distance by at most
    ~stride / n."""
    x = np.sort(draws)
    g = x[::stride]
    F = np.concatenate([[0.0], cdf(g), [1.0]])
    at = np.concatenate([[0.0], np.searchsorted(x, g, side="right") / x.size, [1.0]])
    below = np.concatenate([[0.0], np.searchsorted(x, g, side="left") / x.size, [1.0]])
    return float(max((below[1:] - F[:-1]).max(), (F[1:] - at[:-1]).max()))


# (n, k, p, beta, targets): the paper design, the harness tests' small one,
# and a small one whose target 0 has |loc| / c ~ 50, a law evaluated over T
_LAW_DESIGNS = {
    "paper": (10_000, 21, 11, np.arange(-5.0, 6.0), (0, 5)),
    "small": (250, 12, 4, [2.0, -1.0, 0.0, 1.0], (0, 2)),
    "sharp": (250, 12, 4, [30.0, -1.0, 1.0, 1.0], (0,)),
}


class TestPartialSketchingLaw:
    """The exact beta_p law over repeated sketches, against quadrature and draws."""

    @staticmethod
    def _laws(design):
        n, k, p, beta, targets = _LAW_DESIGNS[design]
        data = make_dataset(n, p, beta, seed=8)
        full, gram_inv = fit_full(data), np.linalg.inv(data.X.T @ data.X)
        return [(partial_sketching_law(np.eye(p)[j], full, gram_inv, k, p), k, p, full, gram_inv, j)
                for j in targets]

    @pytest.mark.parametrize("design", list(_LAW_DESIGNS))
    def test_cdf_matches_nested_quadrature(self, design):
        for law, k, p, *_ in self._laws(design):
            x = [partial_sketching_quantile(law, q) for q in (1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-4)]
            ref = [_nested_quad_cdf(law, xi, k, p) for xi in x]
            np.testing.assert_allclose(partial_sketching_cdf(law, np.array(x)), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("design", list(_LAW_DESIGNS))
    def test_density_is_cdf_derivative(self, design):
        for law, *_ in self._laws(design):
            x = np.array([partial_sketching_quantile(law, q) for q in (0.01, 0.2, 0.5, 0.8, 0.99)])
            h = 1e-4 * law.c
            slope = (partial_sketching_cdf(law, x + h) - partial_sketching_cdf(law, x - h)) / (2 * h)
            np.testing.assert_allclose(partial_sketching_pdf(law, x), slope, rtol=1e-6)

    @pytest.mark.parametrize("q", [1e-6, 0.001, 0.5, 0.999])
    def test_quantile_inverts_cdf(self, q):
        for law, *_ in self._laws("paper"):
            assert partial_sketching_cdf(law, partial_sketching_quantile(law, q)) == pytest.approx(
                q, rel=1e-12)

    @pytest.mark.parametrize("design", ["paper", "sharp"])
    def test_million_draws_within_dkw_bound(self, design):
        # the 99% Dvoretzky-Kiefer-Wolfowitz bound for 10^6 draws, set by the
        # count alone: P(sup |Fn - F| > eps) <= 2 exp(-2 n eps^2) = 0.01
        count = 1_000_000
        eps = math.sqrt(math.log(2.0 / 0.01) / (2.0 * count))
        for law, k, p, full, gram_inv, j in self._laws(design):
            draws = sample_partial_sketching_rep(np.eye(p)[j], full, gram_inv, k, p, count, seed=41 + j)
            assert _ks_upper_bound(draws, lambda v: partial_sketching_cdf(law, v), 50) < eps

    def test_ks_upper_bound_bounds_the_distance(self):
        rng = np.random.default_rng(5)
        draws = rng.standard_normal(20_000)
        exact = ks_distance(draws, stats.norm.cdf)
        bound = _ks_upper_bound(draws, stats.norm.cdf, 50)
        assert exact <= bound <= exact + 2 * 50 / draws.size

    @pytest.mark.parametrize("table,reason", [((7.0, 29), "step too coarse"),
                                              ((1.0, 449), "range too narrow")])
    def test_coarse_rule_raises(self, monkeypatch, table, reason):
        data = make_dataset(250, 4, [2.0, -1.0, 0.0, 1.0], seed=8)
        args = (np.eye(4)[2], fit_full(data), np.linalg.inv(data.X.T @ data.X), 12, 4)
        assert partial_sketching_law(*args).weight.size > 0
        monkeypatch.setattr(special_fn, "_NODES", special_fn._node_table(*table))
        with pytest.raises(ConvergenceError, match=reason):
            partial_sketching_law(*args)

    @pytest.mark.parametrize("b0", [6.0, 200.0, -200.0])
    def test_sharp_law_is_evaluated_over_t(self, b0):
        # |beta_F[0]| / c from ~10 to ~10^3: in log R the CDF's integrand
        # steps over ~c / |loc|, too sharp for the chi2 rule; over T it is smooth
        data = make_dataset(250, 4, [b0, -1.0, 1.0, 1.0], seed=8)
        full, gram_inv = fit_full(data), np.linalg.inv(data.X.T @ data.X)
        law = partial_sketching_law(np.eye(4)[0], full, gram_inv, 12, 4)
        assert abs(law.loc) / law.c > 8 and law.tail is not None
        x = np.array([partial_sketching_quantile(law, q) for q in (1e-4, 0.01, 0.5, 0.99, 1 - 1e-4)])
        ref = [_nested_quad_cdf(law, xi, 12, 4) for xi in x]
        np.testing.assert_allclose(partial_sketching_cdf(law, x), ref, rtol=0, atol=1e-12)
        h = 1e-4 * law.c
        slope = (partial_sketching_cdf(law, x + h) - partial_sketching_cdf(law, x - h)) / (2 * h)
        np.testing.assert_allclose(partial_sketching_pdf(law, x), slope, rtol=1e-6)

    def test_law_over_t_across_zero(self):
        # loc / c ~ 1.7 at k - p = 4: evaluated over T, with 7% of the mass
        # below 0, where the T form of the CDF changes side
        data = make_dataset(250, 4, [1.4, -1.0, 1.0, 1.0], seed=8)
        full, gram_inv = fit_full(data), np.linalg.inv(data.X.T @ data.X)
        law = partial_sketching_law(np.eye(4)[0], full, gram_inv, 8, 4)
        assert law.tail is not None and 0.05 < partial_sketching_cdf(law, 0.0) < 0.1
        x = np.array([-1e-9, 0.0, 1e-9]) * law.c
        np.testing.assert_allclose(partial_sketching_cdf(law, x), special_fn.dist_cdf(
            special_fn.student_t(law.df), -law.loc / law.c), rtol=1e-8)
        np.testing.assert_allclose(partial_sketching_pdf(law, x), partial_sketching_pdf(law, 0.0),
                                   rtol=1e-7)
        x = np.array([-0.5, -0.05, 0.05, 0.5]) * law.c
        ref = [_nested_quad_cdf(law, xi, 8, 4) for xi in x]
        np.testing.assert_allclose(partial_sketching_cdf(law, x), ref, rtol=0, atol=1e-12)

    def test_checks_as_the_sampler(self):
        data = make_dataset(300, 3, [1.0, -2.0, 0.5], seed=19)
        full, gram_inv = fit_full(data), np.linalg.inv(data.X.T @ data.X)
        with pytest.raises(AssumptionViolated):
            partial_sketching_law(data.X.T @ data.y, full, gram_inv, 15, 3)
        with pytest.raises(DomainError):
            partial_sketching_law(np.ones(4), full, gram_inv, 15, 3)


class TestPartialSamplingRep:
    def setup_method(self):
        rng = np.random.default_rng(37)
        self.n, self.p, self.k = 500, 3, 15
        self.X = np.column_stack([np.ones(self.n), rng.standard_normal((self.n, self.p - 1))])
        self.gram = self.X.T @ self.X
        self.truth = ModelTruth(beta_0=np.array([1.0, -2.0, 0.5]), sigma2=1.0)

    def test_zero_signal_zero_noncentrality(self):
        truth0 = ModelTruth(beta_0=np.zeros(3), sigma2=1.0)
        draws = sample_partial_sampling_rep(np.array([1.0, 0.0, 0.0]), truth0, self.gram,
                                            self.k, self.p, 50_000, seed=41)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se

    def test_matches_direct_simulation(self):
        m_vec = np.array([0.0, 1.0, 0.0])
        rep = sample_partial_sampling_rep(m_vec, self.truth, self.gram,
                                          self.k, self.p, 100_000, seed=43)
        rng = np.random.default_rng(44)
        direct = np.empty(10_000)
        gamma = (self.k - self.p - 1) / self.k
        for r in range(direct.size):
            y = self.X @ self.truth.beta_0 + rng.standard_normal(self.n)
            S = rng.standard_normal((self.k, self.n)) / math.sqrt(self.k)
            Xs = S @ self.X
            direct[r] = gamma * float(np.linalg.solve(Xs.T @ Xs, self.X.T @ y)[1])
        assert ks_distance(direct, ecdf_callable(rep)) < 0.02

    def test_mean_unbiased_and_inflated_alternative_rejected(self):
        # E[draws] = m'beta_0; the df-labeled scaling (k-p+1)/R would inflate
        # the mean by (k-p+1)/(k-p-1), which the moment check rules out
        m_vec = np.array([0.0, 1.0, 0.0])
        rep = sample_partial_sampling_rep(m_vec, self.truth, self.gram,
                                          self.k, self.p, 400_000, seed=47)
        target = float(m_vec @ self.truth.beta_0)
        inflated = target * (self.k - self.p + 1) / (self.k - self.p - 1)
        se = rep.std() / math.sqrt(rep.size)
        assert abs(rep.mean() - target) < 3 * se
        assert abs(rep.mean() - inflated) > 10 * se

    def test_requires_p_at_least_two(self):
        with pytest.raises(DomainError):
            sample_partial_sampling_rep(np.array([1.0]), ModelTruth(beta_0=np.array([1.0]),
                                        sigma2=1.0), np.array([[2.0]]), 10, 1, 10, seed=0)

    def test_rejects_parallel_contrast(self):
        with pytest.raises(AssumptionViolated):
            sample_partial_sampling_rep(self.truth.beta_0.copy(), self.truth, self.gram,
                                        self.k, self.p, 10, seed=0)


class TestPartialApproxDensity:
    def test_normalizes_p1(self):
        rng = np.random.default_rng(53)
        n, k, p = 400, 12, 1
        X = rng.standard_normal((n, 1)) * 0.8
        gram = X.T @ X
        truth = ModelTruth(beta_0=np.array([0.6]), sigma2=1.0)
        val, _ = integrate.quad(
            lambda b: partial_approx_pdf(np.array([b]), truth, gram, k, p),
            -np.inf, np.inf, limit=400)
        assert abs(val - 1.0) < 1e-4

    def test_zero_signal_limit_is_scaled_t(self):
        rng = np.random.default_rng(54)
        n, k, p = 300, 14, 1
        X = rng.standard_normal((n, 1))
        gram = X.T @ X
        truth = ModelTruth(beta_0=np.array([0.0]), sigma2=1.0)
        gamma = (k - p - 1) / k
        sc = math.sqrt(gamma * truth.sigma2 / float(gram[0, 0]))
        for b in (-0.2, 0.0, 0.13):
            got = partial_approx_pdf(np.array([b]), truth, gram, k, p)
            ref = stats.t.pdf(b / sc, k) / sc
            assert np.isfinite(got)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_matches_sampling_mc(self):
        rng = np.random.default_rng(55)
        n, k, p = 400, 50, 1
        X = rng.standard_normal((n, 1)) * 0.8
        gram = X.T @ X
        truth = ModelTruth(beta_0=np.array([0.6]), sigma2=1.0)
        gamma = (k - p - 1) / k
        draws = np.empty(10_000)
        for r in range(draws.size):
            y = X[:, 0] * truth.beta_0[0] + rng.standard_normal(n)
            S = rng.standard_normal((k, n)) / math.sqrt(k)
            xs = S @ X[:, 0]
            draws[r] = gamma * float(X[:, 0] @ y) / float(xs @ xs)
        lo, hi = np.quantile(draws, [0.0005, 0.9995])
        cdf = _cdf_from_pdf(lambda b: partial_approx_pdf(np.array([b]), truth, gram, k, p),
                            np.linspace(lo, hi, 301))
        assert ks_distance(draws, cdf) < 0.05

    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(56)
        n, k, p = 200, 12, 2
        X = rng.standard_normal((n, 2))
        truth = ModelTruth(beta_0=np.array([0.5, -1.0]), sigma2=1.0)
        for b1 in np.linspace(-4, 4, 25):
            for b2 in np.linspace(-4, 4, 5):
                assert partial_approx_pdf(np.array([b1, b2]), truth, X.T @ X, k, p) >= 0.0

    def test_huge_error_variance_is_the_zero_signal_law(self):
        # sigma2^2 overflows a float; beta_0 is then negligible next to the
        # noise and the density is its beta_0 = 0 limit
        b, gram, k, p = np.ones(2), np.eye(2), 10, 2
        got = partial_approx_pdf(b, ModelTruth(np.ones(2), 1e160), gram, k, p)
        ref = partial_approx_pdf(b, ModelTruth(np.zeros(2), 1e160), gram, k, p)
        assert 0.0 < got and got == pytest.approx(ref, rel=1e-10)

    def test_tiny_error_variance_raises_non_finite(self):
        # the Bessel argument b'X'X beta_0 / sigma2 squared overflows
        with pytest.raises(NonFinite):
            partial_approx_pdf(np.ones(2), ModelTruth(np.ones(2), 1e-160), np.eye(2), 10, 2)


# an indefinite Gram or scale matrix with one or two negative eigenvalues
_INDEFINITE = [np.diag([-100.0] + [100.0] * 10), np.diag([-100.0, -100.0] + [100.0] * 9)]


class TestPositiveDefinite:
    """Every kernel that factors a matrix rejects one that is not positive definite."""

    beta0 = np.arange(1.0, 12.0)
    truth = ModelTruth(beta_0=beta0, sigma2=1.0)
    point = beta0 + np.eye(11)[-1]  # a positive-curvature direction of every matrix

    @pytest.mark.parametrize("gram", _INDEFINITE)
    def test_complete_sampling_pdf(self, gram):
        with pytest.raises(DomainError, match="positive definite"):
            complete_sampling_pdf(self.point, self.truth, gram, 2000, 21, 11)

    @pytest.mark.parametrize("gram", _INDEFINITE)
    def test_partial_approx_pdf(self, gram):
        with pytest.raises(DomainError, match="positive definite"):
            partial_approx_pdf(self.point, self.truth, gram, 21, 11)

    @pytest.mark.parametrize("scale", _INDEFINITE)
    def test_mvt_pdf(self, scale):
        params = MultivariateTParams(df=5.0, location=self.beta0, scale_matrix=scale)
        with pytest.raises(DomainError, match="positive definite"):
            mvt_pdf(params, self.point)

    @pytest.mark.parametrize("gram", _INDEFINITE)
    def test_sample_partial_sampling_rep(self, gram):
        with pytest.raises(DomainError, match="positive definite"):
            sample_partial_sampling_rep(np.eye(11)[0], self.truth, gram, 21, 11, 10, seed=0)

    def test_non_finite_or_non_square_matrix(self):
        with pytest.raises(NonFinite):
            _spd_factor(np.diag([1.0, np.inf]))
        with pytest.raises(DomainError, match="square"):
            _spd_factor(np.ones((2, 3)))


class TestSpdFactorCache:
    def setup_method(self):
        rng = np.random.default_rng(71)
        self.X = rng.standard_normal((200, 3))
        self.truth = ModelTruth(beta_0=np.array([1.0, -0.5, 0.25]), sigma2=1.0)
        self.b = self.truth.beta_0 + 0.05

    def _pdf(self, gram):
        return complete_sampling_pdf(self.b, self.truth, gram, 200, 12, 3)

    def test_in_place_change_is_seen(self):
        gram = self.X.T @ self.X
        _cholesky.cache_clear()
        want = self._pdf(2.0 * gram)
        _cholesky.cache_clear()
        first = self._pdf(gram)
        gram *= 2.0
        assert self._pdf(gram) == want != first

    def test_layout_and_dtype_share_one_factor(self):
        gram = np.round(self.X.T @ self.X)  # integral, so an integer copy is exact
        copies = [gram, np.asfortranarray(gram), gram.astype(np.int64)]
        factors = [_spd_factor(g) for g in copies]
        assert all(f[0] is factors[0][0] and f[1] == factors[0][1] for f in factors)
        vals = [self._pdf(g) for g in copies]
        assert vals[1] == vals[0] and vals[2] == vals[0]

    def test_factor_is_read_only(self):
        L, _ = _spd_factor(self.X.T @ self.X)
        with pytest.raises(ValueError):
            L[0, 0] = 0.0

    def test_cache_is_bounded(self):
        bound = _cholesky.cache_info().maxsize
        assert bound == 4
        for i in range(3 * bound):
            _spd_factor((i + 1.0) * np.eye(3))
            assert _cholesky.cache_info().currsize <= bound


# each exp-of-log wrapper at an argument past double precision: mvt_pdf,
# complete_sampling_pdf and partial_approx_pdf raised a bare OverflowError
# there.  ssr_s_law_pdf and ratio_law_pdf stay below it at every
# representable argument, so their log forms are patched to a value above it.
_TINY_TRUTH = ModelTruth(beta_0=np.zeros(11), sigma2=1e-70)


@pytest.mark.parametrize("wrapper,args,log_form", [
    (special_fn.kummer_u, (1.0, 100.0, 1e-10), None),
    (special_fn.bessel_k, (200.0, 1e-6), None),
    (mvt_pdf, (MultivariateTParams(df=5.0, location=np.zeros(11),
                                   scale_matrix=1e-70 * np.eye(11)), np.zeros(11)), None),
    (complete_sampling_pdf, (np.zeros(11), _TINY_TRUTH, np.eye(11), 100, 21, 11), None),
    (partial_approx_pdf, (np.zeros(11), _TINY_TRUTH, np.eye(11), 21, 11), None),
    (h_law_pdf, (1e-320, HLawParams(alpha=0.01, lam=1.0)), None),
    (ssr_s_law_pdf, (100.0, 200, 12, 3), "ssr_s_law_logpdf"),
    (ratio_law_pdf, (1.0, 1.5, HLawParams(alpha=4.0, lam=6.0)), "ratio_law_logpdf"),
], ids=lambda v: getattr(v, "__name__", None))
def test_exp_of_log_wrappers_raise_overflow_signal(monkeypatch, wrapper, args, log_form):
    if log_form is not None:
        monkeypatch.setattr(densities, log_form, lambda *_: 710.0)
    with pytest.raises(OverflowSignal, match="overflows double precision"):
        wrapper(*args)


def _joint_test(gram):
    data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
    fit = fit_complete(apply_gaussian(data, SketchSpec(kind=SketchKind.GAUSSIAN, k=10, seed=6)))
    return complete_sampling_joint_test(fit, gram, 100, 10, 3, fit.beta)


# every caller of the one Gram rule at p = 3; complete_sampling_pdf
# returned a density for a 4 x 4 Gram matrix with p = 3
_GRAM_CALLERS = {
    "complete_sampling_pdf": lambda gram: complete_sampling_pdf(
        np.zeros(3), ModelTruth(np.ones(3), 1.0), gram, 100, 10, 3),
    "partial_approx_pdf": lambda gram: partial_approx_pdf(
        np.zeros(3), ModelTruth(np.ones(3), 1.0), gram, 10, 3),
    "sample_partial_sampling_rep": lambda gram: sample_partial_sampling_rep(
        np.eye(3)[0], ModelTruth(np.ones(3), 1.0), gram, 10, 3, 10, seed=0),
    "complete_sampling_joint_test": _joint_test,
}


@pytest.mark.parametrize("gram", [np.eye(2), 100.0 * np.eye(4), np.ones(9)], ids=["2x2", "4x4", "flat"])
@pytest.mark.parametrize("caller", sorted(_GRAM_CALLERS))
def test_gram_not_p_by_p_is_named(caller, gram):
    with pytest.raises(DomainError, match=r"^Gram matrix must be 3 x 3, got shape \("):
        _GRAM_CALLERS[caller](gram)


class TestSamplingLawArguments:
    """Each sampling law checks its truth, point and index against p, naming
    the argument; each case raised numpy's bare ValueError or IndexError, or
    (a length-1 beta_0 or b broadcast) returned a value."""

    gram, truth = 100.0 * np.eye(3), ModelTruth(beta_0=np.ones(3), sigma2=1.0)
    short = ModelTruth(beta_0=[1.0], sigma2=1.0)
    mvt = MultivariateTParams(df=5.0, location=np.zeros(3), scale_matrix=np.eye(3))

    @pytest.mark.parametrize("call,message", [
        (lambda s: complete_sampling_pdf(np.zeros(3), s.short, s.gram, 100, 12, 3),
         "beta_0 has length 1, expected 3"),
        (lambda s: partial_approx_pdf(np.zeros(3), s.short, s.gram, 12, 3),
         "beta_0 has length 1, expected 3"),
        (lambda s: sample_partial_sampling_rep(np.eye(3)[0], s.short, s.gram, 12, 3, 10, seed=0),
         "beta_0 has length 1, expected 3"),
        (lambda s: complete_sampling_pdf(np.zeros(2), s.truth, s.gram, 100, 12, 3),
         "b has length 2, expected 3"),
        (lambda s: complete_sampling_pdf(np.zeros(1), s.truth, s.gram, 100, 12, 3),
         "b has length 1, expected 3"),
        (lambda s: mvt_pdf(s.mvt, np.zeros(4)), "b has length 4, expected 3"),
        (lambda s: mvt_pdf(s.mvt, np.zeros(1)), "b has length 1, expected 3"),
        (lambda s: mvt_marginal_cdf(s.mvt, 7, 0.0), r"coordinate index 7 outside \[0, 3\)"),
        (lambda s: mvt_marginal_cdf(s.mvt, -1, 0.0), r"coordinate index -1 outside \[0, 3\)"),
    ], ids=["complete-beta_0", "partial_approx-beta_0", "partial_rep-beta_0", "complete-b2",
            "complete-b1", "mvt-b4", "mvt-b1", "marginal-j7", "marginal-j-1"])
    def test_named(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call(self)

    @pytest.mark.parametrize("law", ["complete_sampling_pdf", "partial_approx_pdf",
                                     "sample_partial_sampling_rep"])
    def test_zero_sigma2(self, law):
        truth = ModelTruth(beta_0=np.ones(3), sigma2=0.0)
        args = {"complete_sampling_pdf": (np.zeros(3), truth, self.gram, 100, 12, 3),
                "partial_approx_pdf": (np.zeros(3), truth, self.gram, 12, 3),
                "sample_partial_sampling_rep": (np.eye(3)[0], truth, self.gram, 12, 3, 10, 0)}
        with pytest.raises(DomainError, match="requires sigma2 > 0"):
            getattr(densities, law)(*args[law])


class TestDesignSizes:
    """One check of the sampling laws' n, k and p: a NaN size passed the range
    comparisons and failed later under a misleading name (ConvergenceError
    "at mode nan", NonFinite "Bessel argument overflows", NonFinite "log K_nu
    needs a finite order")."""

    gram, truth = 100.0 * np.eye(3), ModelTruth(beta_0=np.ones(3), sigma2=1.0)
    laws = {
        "complete_sampling_pdf": lambda s, n, k, p: complete_sampling_pdf(
            np.zeros(3), s.truth, s.gram, n, k, p),
        "partial_approx_pdf": lambda s, n, k, p: partial_approx_pdf(
            np.zeros(3), s.truth, s.gram, k, p),
        "ssr_s_law_pdf": lambda s, n, k, p: ssr_s_law_pdf(200.0, n, k, p),
        "sample_partial_sampling_rep": lambda s, n, k, p: sample_partial_sampling_rep(
            np.eye(3)[0], s.truth, s.gram, k, p, 10, seed=0),
    }

    @pytest.mark.parametrize("law,name", [(law, name) for law in laws for name in ("n", "k")
                                          if name == "k" or law.startswith(("complete", "ssr"))])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 12.5, "12", True])
    def test_non_integer_size_is_named(self, law, name, value):
        sizes = {"n": 100, "k": 12, "p": 3, name: value}
        with pytest.raises(DomainError, match=f"^{name} takes a finite integer, got "):
            self.laws[law](self, **sizes)

    @pytest.mark.parametrize("law,sizes,message", [
        ("complete_sampling_pdf", (3, 12, 3), r"n must exceed p \(got n=3, p=3\)"),
        ("complete_sampling_pdf", (100, 2, 3), r"k must be at least p \(got k=2, p=3\)"),
        ("ssr_s_law_pdf", (100, 3, 3), r"k must be at least p \+ 1 \(got k=3, p=3\)"),
        ("partial_approx_pdf", (100, 4, 3), r"k must be at least p \+ 2 \(got k=4, p=3\)"),
        ("sample_partial_sampling_rep", (100, 12, 1), r"p must be at least 2, got 1"),
    ])
    def test_size_out_of_range_is_named(self, law, sizes, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            self.laws[law](self, *sizes)

    def test_integral_sizes_of_any_type(self):
        assert ssr_s_law_pdf(200.0, 100.0, np.int64(12), 3) == ssr_s_law_pdf(200.0, 100, 12, 3)


class TestDrawCounts:
    """Both representation samplers check their draw count with one rule: -1
    raised numpy's bare ValueError and 2.5 a TypeError."""

    @pytest.mark.parametrize("count", [-1, 2.5, True])
    @pytest.mark.parametrize("sampler", ["sketching", "sampling"])
    def test_count_is_a_nonnegative_integer(self, sampler, count):
        data = make_dataset(100, 3, [1.0, -2.0, 0.5], seed=19)
        gram = data.X.T @ data.X
        with pytest.raises(DomainError, match=f"^count takes an integer >= 0, got {count!r}$"):
            if sampler == "sketching":
                sample_partial_sketching_rep(np.eye(3)[1], fit_full(data), np.linalg.inv(gram),
                                             12, 3, count, seed=0)
            else:
                sample_partial_sampling_rep(np.eye(3)[1], ModelTruth(beta_0=np.ones(3), sigma2=1.0),
                                            gram, 12, 3, count, seed=0)

    @pytest.mark.parametrize("count", [0, np.int64(3)])
    def test_zero_and_numpy_counts(self, count):
        gram = 100.0 * np.eye(3)
        draws = sample_partial_sampling_rep(np.eye(3)[1], ModelTruth(beta_0=np.ones(3), sigma2=1.0),
                                            gram, 12, 3, count, seed=0)
        assert draws.shape == (int(count),)


class TestMultivariateTParameters:
    @pytest.mark.parametrize("df", [math.nan, math.inf, 0.0, -1.0])
    def test_df_finite_and_positive(self, df):
        with pytest.raises(DomainError, match="df must be finite and positive"):
            MultivariateTParams(df=df, location=np.zeros(2), scale_matrix=np.eye(2))

    @pytest.mark.parametrize("location,scale", [
        ([0.0, math.nan], np.eye(2)), (np.zeros(2), np.diag([1.0, math.inf]))])
    def test_location_and_scale_finite(self, location, scale):
        with pytest.raises(NonFinite):
            MultivariateTParams(df=5.0, location=location, scale_matrix=scale)


class TestSketchingLawHelper:
    def test_marginal_matches_construction(self):
        data = make_dataset(200, 3, [1.0, 0.5, -0.5], seed=61)
        full = fit_full(data)
        gram_inv = np.linalg.inv(data.X.T @ data.X)
        params = complete_sketching_t_params(full, gram_inv, 12, 3)
        assert params.df == 10
        assert params.scale_matrix[1, 1] == pytest.approx(
            gram_inv[1, 1] * full.SSR_F / 10.0)
        # marginal CDF is the scaled-shifted t
        x = full.beta_F[1] + 0.3
        sd = math.sqrt(params.scale_matrix[1, 1])
        assert mvt_marginal_cdf(params, 1, x) == pytest.approx(
            stats.t.cdf(0.3 / sd, 10), rel=1e-12)

    def test_marginal_cdf_equals_scipy_stats(self):
        data = make_dataset(200, 3, [1.0, 0.5, -0.5], seed=61)
        params = complete_sketching_t_params(fit_full(data), np.linalg.inv(data.X.T @ data.X),
                                             12, 3)
        for j in range(3):
            sd = math.sqrt(params.scale_matrix[j, j])
            x = params.location[j] + sd * np.concatenate(
                [np.linspace(-40.0, 40.0, 801), [0.0, np.inf, -np.inf, np.nan]])
            ref = stats.t.cdf((x - params.location[j]) / sd, params.df)
            assert np.array_equal(mvt_marginal_cdf(params, j, x), ref, equal_nan=True)
            assert mvt_marginal_cdf(params, j, x[7]) == ref[7]
