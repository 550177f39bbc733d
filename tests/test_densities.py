"""Nonstandard densities: normalization, moments, and end-to-end MC agreement."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from sketch_infer import special_fn
from sketch_infer.core_model import DataSet, ModelTruth, fit_full
from sketch_infer.densities import (
    HLawParams,
    MultivariateTParams,
    _check_direction,
    _cholesky,
    _log_m_neg_laplace,
    _spd_factor,
    complete_sampling_approx_t,
    complete_sampling_pdf,
    complete_sketching_t_params,
    h_law_pdf,
    h_law_sample,
    mvt_marginal_cdf,
    mvt_pdf,
    partial_approx_pdf,
    ratio_beta_law_pdf,
    ratio_law_pdf,
    sample_partial_sampling_rep,
    sample_partial_sketching_rep,
    ssr_s_law_params,
    ssr_s_law_pdf,
)
from sketch_infer.errors import AssumptionViolated, ConvergenceError, DomainError, NonFinite
from sketch_infer.estimators import PartialInputs, fit_complete, fit_partial
from sketch_infer.sketch_ops import SketchKind, SketchSpec, apply_gaussian, derive_seed

from conftest import ecdf_callable, ks_distance, make_dataset


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

    def test_approximate_t_parameters(self):
        params = complete_sampling_approx_t(10_000, 21, 11, ModelTruth(
            beta_0=np.zeros(11), sigma2=1.0), np.eye(11))
        assert params.df == 11
        assert params.scale_matrix[0, 0] == pytest.approx((10_000 - 11) / 11.0)

    def test_approximation_close_for_large_n(self):
        n, k, p = 10_000, 21, 1
        rng = np.random.default_rng(9)
        X = rng.standard_normal((n, 1))
        gram = X.T @ X
        truth = ModelTruth(beta_0=np.array([0.4]), sigma2=1.0)
        exact = complete_sampling_pdf(truth.beta_0, truth, gram, n, k, p)
        approx = mvt_pdf(complete_sampling_approx_t(n, k, p, truth, gram), truth.beta_0)
        assert abs(exact - approx) / exact < 0.01

    @pytest.mark.parametrize("gram,error", [
        (np.array([[1.0, 2.0], [2.0, 4.0]]), DomainError),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFinite),
        (np.diag([1.0, -1.0]), DomainError),
    ], ids=["singular", "nan", "indefinite"])
    def test_approximate_t_needs_positive_definite_gram(self, gram, error):
        truth = ModelTruth(beta_0=np.zeros(2), sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error):
                complete_sampling_approx_t(100, 10, 2, truth, gram)


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
        rng = np.random.default_rng(17)
        m = 10_000
        q = rng.gamma(phi, 2.0, m)
        v = rng.beta(kappa, bparam, m)
        u = h_law_sample(params, seed=18, count=m)
        draws = q / (v * u)
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

    @pytest.mark.parametrize("outcome", ["warning", "nan", "negative"])
    def test_failed_quadrature_raises(self, monkeypatch, outcome):
        # no fallback: a quadrature that fails, or returns a non-finite or
        # negative value, is a ConvergenceError
        def quad(*args, **kwargs):
            if outcome == "warning":
                # as scipy's quad reports a failed integral: a warning and a value
                warnings.warn("roundoff error detected", integrate.IntegrationWarning)
                return 0.1, 0.0
            return (np.nan if outcome == "nan" else -1e-3), 0.0

        monkeypatch.setattr(integrate, "quad", quad)
        # warnings not turned into errors, as outside the test suite
        with warnings.catch_warnings(), pytest.raises(ConvergenceError):
            warnings.simplefilter("ignore")
            ratio_beta_law_pdf(np.array([0.5, 1.0]), 1.5, 3.0, 2.0,
                               HLawParams(alpha=4.0, lam=6.0))


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
