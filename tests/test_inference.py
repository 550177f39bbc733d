"""Pivot calibration, identities, and error paths of the inference layer."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from sketch_infer.core_model import DataSet, fit_full
from sketch_infer.densities import ssr_s_law_params
from sketch_infer.errors import (
    AssumptionViolated,
    DegenerateSSR,
    DomainError,
    MissingWStar,
    NegativeDenominator,
    NonFinite,
    RankDeficient,
    SketchInferError,
    ZeroEstimate,
)
from sketch_infer.estimators import (
    FitKind,
    PartialInputs,
    SketchFit,
    fit_complete,
    fit_efficient_star,
    fit_partial,
)
from sketch_infer.inference import (
    Regime,
    Target,
    complete_joint_f_test,
    complete_marginal_t_tests,
    complete_sampling_joint_test,
    partial_linear_combination_test,
    partial_univariate_chi2_test,
    wstar_exact_tests,
    wstar_marginal_t_tests,
)
from sketch_infer.sketch_ops import (
    SketchKind,
    SketchSpec,
    apply_gaussian,
    apply_sketch,
    derive_seed,
)
from sketch_infer.special_fn import Law

from conftest import h_law_sample, ks_distance, make_dataset


def _gauss(data, k, seed, want_w_star=False):
    return apply_gaussian(data, SketchSpec(kind=SketchKind.GAUSSIAN, k=k, seed=seed),
                          want_w_star=want_w_star)


def _partial_inputs(data):
    return PartialInputs(Xty=data.X.T @ data.y, yty=float(data.y @ data.y))


def _zeroed_coordinate_dataset(n, p, beta, j, seed):
    """Dataset adjusted so the full-data estimate of coordinate j is exactly 0."""
    data = make_dataset(n, p, beta, seed=seed)
    b = fit_full(data).beta_F
    y = data.y - data.X[:, j] * b[j]
    data = DataSet(X=data.X, y=y)
    # one more pass removes the second-order leakage through the Gram matrix
    b = fit_full(data).beta_F
    data = DataSet(X=data.X, y=data.y - data.X[:, j] * b[j])
    assert abs(fit_full(data).beta_F[j]) < 1e-12
    return data


class TestCompleteJointF:
    def test_point_null_at_estimate(self):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=1)
        sk = _gauss(data, 10, 2)
        fit = fit_complete(sk)
        res = complete_joint_f_test(fit, sk, fit.beta)
        assert res.statistic == pytest.approx(0.0, abs=1e-20)
        assert res.p_value == pytest.approx(1.0)

    def test_null_law_and_size(self):
        data = make_dataset(250, 3, [1.0, -2.0, 0.5], seed=4)
        full = fit_full(data)
        k, p = 12, 3
        reps = 10_000
        stats_out = np.empty(reps)
        pvals = np.empty(reps)
        for r in range(reps):
            sk = _gauss(data, k, derive_seed(101, r))
            res = complete_joint_f_test(fit_complete(sk), sk, full.beta_F)
            stats_out[r] = res.statistic
            pvals[r] = res.p_value
        assert ks_distance(stats_out, lambda x: stats.f.cdf(x, p, k - p)) < 0.02
        rate = float(np.mean(pvals < 0.05))
        assert 0.043 <= rate <= 0.057
        # exact pivot: null p-values are uniform
        assert ks_distance(pvals, lambda x: np.clip(x, 0.0, 1.0)) < 0.02

    def test_requires_positive_ssr(self, rng):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=2)
        sk = _gauss(data, 8, 3)
        fit = fit_complete(sk)
        degenerate = SketchFit(beta=fit.beta, kind=fit.kind,
                               gram_s_factor=fit.gram_s_factor, SSR_s=0.0)
        with pytest.raises(DegenerateSSR):
            complete_joint_f_test(degenerate, sk, fit.beta)


def _overflow_case(scale):
    """A fit whose design has entries of order 10^scale and response of order
    10^-scale, with its data and sketch."""
    data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=1)
    data = DataSet(X=data.X * 10.0 ** scale, y=data.y * 10.0 ** -scale)
    sk = _gauss(data, 10, 2)
    return fit_complete(sk), sk, data


def _f_test(fit, sk, data, hyp):
    return complete_joint_f_test(fit, sk, hyp)


def _sampling_test(fit, sk, data, hyp):
    return complete_sampling_joint_test(fit, data.X.T @ data.X, data.n, sk.spec.k, sk.p, hyp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("test,scale,hyp,overflowing", [
    (_f_test, 0, 1e200, "||R(b_s - h)||^2"),
    (_sampling_test, 0, 1e200, "(b_s - h)'X'X(b_s - h)"),
    (_f_test, 100, 1e50, "the joint F statistic"),
    (_sampling_test, 100, 1e50, "the joint statistic"),
], ids=["f_quadratic_form", "sampling_quadratic_form", "f_statistic", "sampling_statistic"])
def test_joint_statistic_overflow_is_non_finite(test, scale, hyp, overflowing):
    # both joint tests leaked numpy's overflow warning at a far null or
    # returned a non-finite statistic: the F test as inf (p-value 0), the
    # sampling test as a DomainError naming its law
    with pytest.raises(NonFinite, match=f"{re.escape(overflowing)} overflows"):
        test(*_overflow_case(scale), np.full(3, hyp))


class TestCompleteMarginalT:
    def test_point_null_at_estimate(self):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
        sk = _gauss(data, 10, 6)
        fit = fit_complete(sk)
        res, _ = complete_marginal_t_tests(fit, sk, fit.beta, 0.95)[1]
        assert res.statistic == pytest.approx(0.0, abs=1e-14)
        assert res.p_value == pytest.approx(1.0)

    def test_null_length_must_match(self):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
        sk = _gauss(data, 10, 6)
        fit = fit_complete(sk)
        with pytest.raises(DomainError, match="beta_hyp has length 4"):
            complete_marginal_t_tests(fit, sk, np.zeros(4), 0.95)
        # a one-value null is not broadcast to every coefficient
        with pytest.raises(DomainError, match="beta_hyp has length 1"):
            complete_joint_f_test(fit, sk, [0.5])
        with pytest.raises(DomainError, match="beta_hyp has length 2"):
            complete_sampling_joint_test(fit, data.X.T @ data.X, 100, 10, 3, [0.5, 1.0])

    def test_statistic_helper_consistency(self):
        from sketch_infer.inference import marginal_t_statistic

        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
        sk = _gauss(data, 10, 6)
        fit = fit_complete(sk)
        stat, se = marginal_t_statistic(fit, sk, 1, 0.25)
        res, ci = complete_marginal_t_tests(fit, sk, [0.0, 0.25, 0.0], 0.95)[1]
        assert stat == res.statistic
        assert (ci.upper - ci.lower) / 2 == pytest.approx(
            se * stats.t.ppf(0.975, 7), rel=1e-12)

    @pytest.mark.parametrize("j", [3, -1])
    def test_statistic_index_outside_range(self, j):
        from sketch_infer.inference import marginal_t_statistic

        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
        sk = _gauss(data, 10, 6)
        with pytest.raises(DomainError, match=re.escape(f"coefficient index {j} outside [0, 3)")):
            marginal_t_statistic(fit_complete(sk), sk, j, 0.0)

    def test_f_equals_mean_square_t_for_diagonal_gram(self):
        # orthogonal sketched columns: F(hyp) = sum_j t_j(hyp_j)^2 / p
        rng = np.random.default_rng(9)
        k, p = 12, 3
        Q, _ = np.linalg.qr(rng.standard_normal((k, p)))
        Xs = Q * np.array([2.0, 1.0, 0.5])
        ys = rng.standard_normal(k)
        sk_manual = __import__("sketch_infer").sketch_ops.SketchedData(
            Xs=Xs, ys=ys, spec=SketchSpec(kind=SketchKind.GAUSSIAN, k=k, seed=0), n=50, p=p)
        fit = fit_complete(sk_manual)
        hyp = np.array([0.3, -0.2, 0.1])
        f_res = complete_joint_f_test(fit, sk_manual, hyp)
        tsq = [t.statistic ** 2 for t, _ in complete_marginal_t_tests(fit, sk_manual, hyp, 0.95)]
        assert f_res.statistic == pytest.approx(sum(tsq) / p, rel=1e-8)


class TestCompleteMarginalCI:
    def test_coverage(self):
        data = make_dataset(250, 3, [1.0, -2.0, 0.5], seed=7)
        full = fit_full(data)
        reps = 10_000
        hits = 0
        for r in range(reps):
            sk = _gauss(data, 12, derive_seed(211, r))
            _, ci = complete_marginal_t_tests(fit_complete(sk), sk, full.beta_F, 0.95)[0]
            hits += ci.contains(full.beta_F[0])
        assert 0.943 <= hits / reps <= 0.957

    def test_nesting(self):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=8)
        sk = _gauss(data, 10, 9)
        fit = fit_complete(sk)
        _, ci95 = complete_marginal_t_tests(fit, sk, np.zeros(3), 0.95)[1]
        _, ci99 = complete_marginal_t_tests(fit, sk, np.zeros(3), 0.99)[1]
        assert ci99.lower <= ci95.lower <= ci95.upper <= ci99.upper

    def test_width_tracks_gram_inverse(self):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=10)
        sk = _gauss(data, 10, 11)
        fit = fit_complete(sk)
        Ginv = np.linalg.inv(sk.Xs.T @ sk.Xs)
        w = [ci.upper - ci.lower for _, ci in complete_marginal_t_tests(fit, sk, np.zeros(3), 0.95)]
        for j in range(1, 3):
            assert w[j] / w[0] == pytest.approx(math.sqrt(Ginv[j, j] / Ginv[0, 0]), rel=1e-8)


class TestWStarExact:
    def test_square_sketch_reduces_to_classical_f(self):
        data = make_dataset(40, 3, [1.0, -1.0, 2.0], seed=13)
        full = fit_full(data)
        hyp = np.array([0.5, 0.0, 1.0])
        sk = _gauss(data, 40, 14, want_w_star=True)
        fit = fit_efficient_star(sk)
        e = data.y - data.X @ hyp
        res, _ = wstar_exact_tests(fit, sk, float(e @ e), hyp)
        d = full.beta_F - hyp
        num = float(d @ (data.X.T @ data.X) @ d)
        classical = (num / 3) / (full.SSR_F / (40 - 3))
        assert res.statistic == pytest.approx(classical, rel=1e-8)

    def test_null_laws(self):
        n, p, k = 300, 3, 15
        rng = np.random.default_rng(15)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, -2.0, 0.5])
        sigma2 = 1.0
        reps = 4000
        f_stats = np.empty(reps)
        c_stats = np.empty(reps)
        for r in range(reps):
            y = X @ beta0 + rng.standard_normal(n)
            data = DataSet(X=X, y=y)
            sk = _gauss(data, k, derive_seed(301, r), want_w_star=True)
            fit = fit_efficient_star(sk)
            e = y - X @ beta0
            f_res, c_res = wstar_exact_tests(fit, sk, float(e @ e), beta0, sigma2=sigma2)
            f_stats[r] = f_res.statistic
            c_stats[r] = c_res.statistic
        assert ks_distance(f_stats, lambda x: stats.f.cdf(x, p, n - p)) < 0.03
        assert ks_distance(c_stats, lambda x: stats.chi2.cdf(x, p)) < 0.03

    def test_requires_star_fit(self):
        data = make_dataset(60, 3, [1.0, -1.0, 0.5], seed=16)
        sk = _gauss(data, 10, 17, want_w_star=True)
        with pytest.raises(DomainError):
            wstar_exact_tests(fit_complete(sk), sk, float(data.y @ data.y), np.zeros(3))

    def test_missing_wstar(self):
        data = make_dataset(60, 3, [1.0, -1.0, 0.5], seed=16)
        sk_w = _gauss(data, 10, 18, want_w_star=True)
        fit = fit_efficient_star(sk_w)
        sk_plain = _gauss(data, 10, 18)
        with pytest.raises(MissingWStar):
            wstar_exact_tests(fit, sk_plain, float(data.y @ data.y), np.zeros(3))

    @pytest.mark.parametrize("yty,hyp,overflowing", [
        (np.inf, 0.0, "||y - X h||^2"), (1.0, 1e200, "||R(b* - h)||^2")])
    def test_overflowing_sum_is_non_finite(self, yty, hyp, overflowing):
        data = make_dataset(60, 3, [1.0, -1.0, 0.5], seed=16)
        sk = _gauss(data, 10, 17, want_w_star=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFinite, match=f"{re.escape(overflowing)} .*overflows"):
                wstar_exact_tests(fit_efficient_star(sk), sk, yty, np.full(3, hyp))


class TestWStarMarginalT:
    def test_univariate_t_squared_is_the_f_statistic(self):
        data = make_dataset(80, 1, [1.5], seed=19, intercept=False)
        sk = _gauss(data, 12, 20, want_w_star=True)
        fit = fit_efficient_star(sk)
        e = data.y - data.X @ np.array([1.2])
        yty = float(e @ e)
        f_res, _ = wstar_exact_tests(fit, sk, yty, [1.2])
        [(t, ci)] = wstar_marginal_t_tests(fit, sk, yty, [1.2], 0.9)
        assert t.statistic ** 2 == pytest.approx(f_res.statistic, rel=1e-12)
        assert t.p_value == pytest.approx(f_res.p_value, rel=1e-9)
        assert str(t.pivot_law) == "t(79)" and t.target is Target.BETA_0
        half = stats.t.ppf(0.95, 79) * (fit.beta[0] - 1.2) / t.statistic
        assert (ci.lower, ci.upper) == pytest.approx((fit.beta[0] - half, fit.beta[0] + half))

    def test_noiseless_null_is_degenerate(self):
        X = np.column_stack([np.arange(60) % 7 - 3.0, (5 * np.arange(60)) % 11 - 5.0])
        data = DataSet(X=X, y=X @ np.array([1.0, 2.0]))
        sk = _gauss(data, 10, 21, want_w_star=True)
        with pytest.raises(DegenerateSSR):
            wstar_marginal_t_tests(fit_efficient_star(sk), sk, 0.0, [1.0, 2.0], 0.95)

    @pytest.mark.parametrize("excess,degenerate", [(0.5, True), (2.0, False)])
    def test_centered_ssr_star_roundoff_floor(self, excess, degenerate):
        # SSR* = y'y - ||R(b* - h)||^2 set to `excess` times its floor
        # k eps y'y: a positive value under the floor is roundoff and rejected
        data = make_dataset(60, 3, [1.0, -1.0, 0.5], seed=16)
        k = 10
        sk = _gauss(data, k, 17, want_w_star=True)
        fit = fit_efficient_star(sk)
        hyp = np.zeros(3)
        ww = float(np.sum((fit.gram_s_factor @ (fit.beta - hyp)) ** 2))
        yty = ww * (1.0 + excess * k * np.finfo(float).eps)
        assert yty - ww > 0.0
        if degenerate:
            with pytest.raises(DegenerateSSR, match="roundoff floor"):
                wstar_marginal_t_tests(fit, sk, yty, hyp, 0.95)
        else:
            assert len(wstar_marginal_t_tests(fit, sk, yty, hyp, 0.95)) == 3

    def test_requires_star_fit_and_level(self):
        data = make_dataset(60, 3, [1.0, -1.0, 0.5], seed=16)
        sk = _gauss(data, 10, 17, want_w_star=True)
        yty = float(data.y @ data.y)
        with pytest.raises(DomainError):
            wstar_marginal_t_tests(fit_complete(sk), sk, yty, np.zeros(3), 0.95)
        with pytest.raises(DomainError):
            wstar_marginal_t_tests(fit_efficient_star(sk), sk, yty, np.zeros(3), 1.0)

    def test_null_length_must_match(self):
        data = make_dataset(60, 3, [1.0, -1.0, 0.5], seed=16)
        sk = _gauss(data, 10, 17, want_w_star=True)
        fit = fit_efficient_star(sk)
        yty = float(data.y @ data.y)
        with pytest.raises(DomainError, match="beta_hyp has length 1"):
            wstar_exact_tests(fit, sk, yty, [0.0])
        with pytest.raises(DomainError, match="beta_hyp has length 4"):
            wstar_marginal_t_tests(fit, sk, yty, np.zeros(4), 0.95)


class TestSamplingApproxT:
    def test_same_statistic_as_sketching_form(self):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=19)
        sk = _gauss(data, 10, 20)
        fit = fit_complete(sk)
        hyp = [0.0, 0.0, 0.1]
        a, _ = complete_marginal_t_tests(fit, sk, hyp, 0.95)[2]
        b, _ = complete_marginal_t_tests(fit, sk, hyp, 0.95, Regime.REPEATED_SAMPLE)[2]
        assert a.statistic == b.statistic
        assert a.target is Target.BETA_F and a.regime is Regime.REPEATED_SKETCH
        assert b.target is Target.BETA_0 and b.regime is Regime.REPEATED_SAMPLE

    def test_null_size(self):
        n, p, k = 400, 3, 12
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, 0.0, -2.0])
        reps = 10_000
        pvals = np.empty(reps)
        for r in range(reps):
            y = X @ beta0 + rng.standard_normal(n)
            data = DataSet(X=X, y=y)
            sk = _gauss(data, k, derive_seed(401, r))
            test, _ = complete_marginal_t_tests(fit_complete(sk), sk, beta0, 0.95,
                                                Regime.REPEATED_SAMPLE)[1]
            pvals[r] = test.p_value
        rate = float(np.mean(pvals < 0.05))
        assert 0.04 <= rate <= 0.06
        # approximate pivot: null p-values are uniform at the looser tolerance
        assert ks_distance(pvals, lambda x: np.clip(x, 0.0, 1.0)) < 0.03


# (n, k, p) designs of the joint test's differential checks
DESIGNS = [(300, 12, 3), (100, 10, 3), (10_000, 21, 11)]


def _joint_reference_draws(n, k, p, size, seed):
    """Draws of the joint test's reference law V/(U R) (n-p)(k-p)/p: V ~ chi2_p,
    R ~ Beta((k-p+1)/2, (n-p)/2) and U ~ H((k-p)/2, (n-p)/2), independent."""
    rng = np.random.default_rng(seed)
    v = rng.chisquare(p, size)
    r = rng.beta((k - p + 1) / 2.0, (n - p) / 2.0, size)
    u = h_law_sample(ssr_s_law_params(n, k, p), rng.integers(2**63), size)
    return v / (u * r) * (n - p) * (k - p) / p


def _quad_joint_p_value(x, n, k, p):
    """P(V/(U R) (n-p)(k-p)/p >= x) by nested adaptive quadrature with no
    absolute tolerance: over u = logit R (inner) and t = log W (outer),
    W ~ chi2_{n-p} the SSR_F factor of U, of P(chi2_p/chi2_{k-p} >= z)
    = I_{1/(1+z)}((k-p)/2, p/2) at z = x W R p/((n-p)(k-p))."""
    a, b, lam = (k - p + 1) / 2.0, (n - p) / 2.0, (n - p) / 2.0
    c = x * p / ((n - p) * (k - p))
    ln_b = special.betaln(a, b)
    ln_g = special.gammaln(lam) + lam * math.log(2.0)
    u_mode, u_width = math.log(a / b), math.sqrt((a + b) / (a * b))
    t_mode, t_width = math.log(2.0 * lam), math.sqrt(1.0 / lam)

    def split_quad(f, ends):
        return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)[0]
                   for lo, hi in zip(ends, ends[1:]))

    def inner(t):
        w = math.exp(t)
        return split_quad(
            lambda u: special.betainc((k - p) / 2.0, p / 2.0, 1.0 / (1.0 + c * special.expit(u) * w))
            * math.exp(a * u - (a + b) * np.logaddexp(0.0, u) - ln_b),
            [u_mode - 100.0 / a - 20.0 * u_width, u_mode, u_mode + 100.0 / b + 20.0 * u_width])

    return split_quad(lambda t: inner(t) * math.exp(lam * t - math.exp(t) / 2.0 - ln_g),
                      [t_mode - max(40.0 * t_width, 100.0 / lam), t_mode, t_mode + 40.0 * t_width])


class TestMcCalibrated:
    """The joint test of beta_0 (once Monte-Carlo calibrated, now exact) against its
    null and alternatives, draws of its reference law and nested quadrature."""

    def test_p_values_uniform_under_null(self):
        n, p, k = 300, 3, 12
        rng = np.random.default_rng(23)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, -2.0, 0.5])
        gram = X.T @ X
        outer = 200
        pvals = np.empty(outer)
        for r in range(outer):
            y = X @ beta0 + rng.standard_normal(n)
            sk = _gauss(DataSet(X=X, y=y), k, derive_seed(501, r))
            res = complete_sampling_joint_test(fit_complete(sk), gram, n, k, p, beta0)
            pvals[r] = res.p_value
        assert ks_distance(pvals, lambda x: np.clip(x, 0, 1)) < 0.1

    def test_power_far_alternative(self):
        n, p, k = 300, 3, 12
        rng = np.random.default_rng(24)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, -2.0, 0.5])
        gram = X.T @ X
        far = beta0 + np.array([3.0, 3.0, -3.0])
        rejections = 0
        for r in range(20):
            y = X @ beta0 + rng.standard_normal(n)
            sk = _gauss(DataSet(X=X, y=y), k, derive_seed(701, r))
            res = complete_sampling_joint_test(fit_complete(sk), gram, n, k, p, far)
            rejections += res.p_value < 0.01
        assert rejections >= 18

    # each raised the ratio-beta law's "phi > 0" message, numpy's bare
    # ValueError, or (singular) returned a p-value
    @pytest.mark.parametrize("gram,error,message", [
        (-np.eye(3), DomainError, "Gram matrix: matrix must be positive definite"),
        (np.diag([1.0, 1.0, 0.0]), DomainError, "Gram matrix: matrix must be positive definite"),
        (np.full((3, 3), np.nan), NonFinite, "Gram matrix: matrix contains NaN"),
        (np.eye(2), DomainError, r"Gram matrix must be 3 x 3, got shape \(2, 2\)"),
        (np.ones(9), DomainError, r"Gram matrix must be 3 x 3, got shape \(9,\)"),
    ])
    def test_gram_checked(self, gram, error, message):
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
        fit = fit_complete(_gauss(data, 10, 6))
        with pytest.raises(error, match=f"^{message}"):
            complete_sampling_joint_test(fit, gram, 100, 10, 3, fit.beta)

    def test_fit_checked_against_p(self):
        # a 3-coefficient fit with p = 2 raised numpy's bare ValueError
        data = make_dataset(100, 3, [1.0, -1.0, 0.5], seed=5)
        fit = fit_complete(_gauss(data, 10, 6))
        with pytest.raises(DomainError, match="^the fit has 3 coefficients, expected p = 2$"):
            complete_sampling_joint_test(fit, np.eye(2), 100, 10, 2, np.zeros(3))

    @staticmethod
    def _test_at(n, k, p):
        """The joint test of one Gaussian sketch of a seeded n x p dataset, as
        a function of its statistic: nulls along one direction from b_s."""
        data = make_dataset(n, p, np.ones(p), seed=31)
        fit = fit_complete(_gauss(data, k, 32))
        gram = data.X.T @ data.X
        base = complete_sampling_joint_test(fit, gram, n, k, p, fit.beta + 1.0).statistic
        return lambda x: complete_sampling_joint_test(fit, gram, n, k, p,
                                                      fit.beta + math.sqrt(x / base))

    @pytest.mark.parametrize("n,k,p", DESIGNS)
    def test_matches_reference_draws(self, n, k, p):
        # 10^6 draws of the reference law; at its 0.5, 0.95 and 0.995
        # quantiles the exact p-value is within 4 binomial standard errors
        size = 1_000_000
        ref = np.sort(_joint_reference_draws(n, k, p, size, seed=derive_seed(901, n)))
        test = self._test_at(n, k, p)
        for level in (0.5, 0.95, 0.995):
            res = test(np.quantile(ref, level))
            tail = 1.0 - np.searchsorted(ref, res.statistic, side="left") / size
            assert abs(res.p_value - tail) <= 4.0 * math.sqrt(res.p_value * (1.0 - res.p_value) / size)

    @pytest.mark.parametrize("n,k,p", DESIGNS)
    def test_matches_nested_quadrature(self, n, k, p):
        # at the statistics whose p-values are 0.5, 1e-4, 1e-7 and 1e-10
        test = self._test_at(n, k, p)
        for level in (0.5, 1e-4, 1e-7, 1e-10):
            lo, hi = math.log(1e-3), math.log(1e12)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if test(math.exp(mid)).p_value > level else (lo, mid)
            res = test(math.exp(lo))
            assert res.p_value == pytest.approx(level, rel=1e-3)
            assert res.p_value == pytest.approx(_quad_joint_p_value(res.statistic, n, k, p),
                                                rel=1e-9, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(k_extra=st.integers(1, 12), n_extra=st.integers(0, 200), p=st.integers(1, 4),
           scales=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2))
    def test_p_value_property(self, k_extra, n_extra, p, scales):
        # in [0, 1], non-increasing in the statistic, the same on a repeated call
        k = p + k_extra
        n = k + n_extra
        data = make_dataset(n, p, np.ones(p), seed=n)
        fit = fit_complete(_gauss(data, k, k))
        gram = data.X.T @ data.X
        a, b = sorted((complete_sampling_joint_test(fit, gram, n, k, p, fit.beta + s)
                       for s in scales), key=lambda res: res.statistic)
        assert 0.0 <= b.p_value <= a.p_value <= 1.0
        again = complete_sampling_joint_test(fit, gram, n, k, p, fit.beta + scales[0])
        assert again == complete_sampling_joint_test(fit, gram, n, k, p, fit.beta + scales[0])
        assert a.pivot_law == Law("mixed_f", (float(p), float(k - p), float(n - p)))


class TestPartialUnivariate:
    def test_chi2_null_law(self):
        n, k = 500, 12
        rng = np.random.default_rng(27)
        x = rng.standard_normal(n) + 1.0
        y = 2.0 * x + rng.standard_normal(n)
        data = DataSet(X=x[:, None], y=y)
        bF = fit_full(data).beta_F[0]
        pin = _partial_inputs(data)
        reps = 10_000
        draws = np.empty(reps)
        for r in range(reps):
            sk = _gauss(data, k, derive_seed(901, r))
            fit = fit_partial(sk, pin)
            draws[r] = partial_univariate_chi2_test(fit, bF, k).statistic
        assert ks_distance(draws, lambda v: stats.chi2.cdf(v, k)) < 0.02
        se = draws.std() / math.sqrt(reps)
        assert abs(draws.mean() - k) < 3 * se

    def test_sign_follows_hypothesis(self):
        data = make_dataset(60, 1, [2.0], seed=28, intercept=False)
        sk = _gauss(data, 9, 29)
        fit = fit_partial(sk, _partial_inputs(data))
        res = partial_univariate_chi2_test(fit, 2.0 * float(np.sign(fit.beta[0])), 9)
        assert res.statistic > 0

    def test_zero_estimate_typed_error(self):
        data = make_dataset(60, 1, [2.0], seed=28, intercept=False)
        fit = fit_partial(_gauss(data, 9, 29), PartialInputs(Xty=[0.0], yty=float(data.y @ data.y)))
        assert fit.beta[0] == 0.0
        with pytest.raises(ZeroEstimate, match="exactly zero") as info:
            partial_univariate_chi2_test(fit, 1.0, 9)
        assert isinstance(info.value, SketchInferError)

    def test_needs_univariate(self):
        data = make_dataset(60, 2, [2.0, 1.0], seed=30)
        sk = _gauss(data, 9, 31)
        fit = fit_partial(sk, _partial_inputs(data))
        with pytest.raises(DomainError):
            partial_univariate_chi2_test(fit, 1.0, 9)


class TestPartialMarginalT:
    def test_null_law_exact_zero_coordinate(self):
        data = _zeroed_coordinate_dataset(400, 4, [1.0, -2.0, 0.5, 1.5], j=2, seed=32)
        pin = _partial_inputs(data)
        k, p = 14, 4
        reps = 10_000
        draws = []
        for r in range(reps):
            sk = _gauss(data, k, derive_seed(1001, r))
            fit = fit_partial(sk, pin)
            try:
                draws.append(partial_linear_combination_test(fit, sk, np.eye(p)[2]).statistic)
            except NegativeDenominator:
                pass
        draws = np.asarray(draws)
        assert draws.size > reps * 0.99
        assert ks_distance(draws, lambda x: stats.t.cdf(x, k - p + 1)) < 0.02

    def test_zero_estimate_gives_unit_p(self):
        R = np.triu(np.random.default_rng(33).standard_normal((3, 3))) + 3 * np.eye(3)
        fit = SketchFit(beta=np.array([0.5, 0.0, -0.2]), kind=FitKind.PARTIAL,
                        gram_s_factor=R, SSR_s=4.0, SSM_p=2.0, gamma=0.5)
        sk = __import__("sketch_infer").sketch_ops.SketchedData(
            Xs=np.zeros((10, 3)) + np.eye(10)[:, :3], ys=np.zeros(10),
            spec=SketchSpec(kind=SketchKind.GAUSSIAN, k=10, seed=0), n=50, p=3)
        res = partial_linear_combination_test(fit, sk, [0.0, 1.0, 0.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_sampling_regime_uses_proxy(self):
        data = make_dataset(300, 3, [1.0, 0.0, -1.0], seed=34)
        sk = _gauss(data, 12, 35)
        fit = fit_partial(sk, _partial_inputs(data))
        e1 = np.array([0.0, 1.0, 0.0])
        a = partial_linear_combination_test(fit, sk, e1, Regime.REPEATED_SAMPLE)
        b = partial_linear_combination_test(fit, sk, e1, Regime.REPEATED_SKETCH)
        # the added variance proxy strictly shrinks the statistic magnitude
        assert abs(a.statistic) < abs(b.statistic)


class TestPartialLinearCombination:
    def test_null_size_general_contrast(self):
        data = _zeroed_coordinate_dataset(400, 4, [1.0, -2.0, 0.5, 1.5], j=3, seed=38)
        pin = _partial_inputs(data)
        k = 14
        m_vec = np.array([0.0, 0.0, 0.0, 1.0])
        reps = 10_000
        pvals = []
        for r in range(reps):
            sk = _gauss(data, k, derive_seed(1101, r))
            fit = fit_partial(sk, pin)
            try:
                pvals.append(partial_linear_combination_test(fit, sk, m_vec).p_value)
            except NegativeDenominator:
                pass
        rate = float(np.mean(np.asarray(pvals) < 0.05))
        assert 0.04 <= rate <= 0.06

    def test_parallel_contrast_rejected_with_note(self):
        data = make_dataset(200, 3, [1.0, -1.0, 0.5], seed=39)
        sk = _gauss(data, 12, 40)
        fit = fit_partial(sk, _partial_inputs(data))
        with pytest.raises(AssumptionViolated, match="inverse-gamma"):
            partial_linear_combination_test(fit, sk, data.X.T @ data.y)


class TestInvariance:
    def test_reparameterization_leaves_p_values(self, rng):
        data = make_dataset(150, 3, [1.0, -1.0, 0.5], seed=41)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        data2 = DataSet(X=data.X @ A, y=data.y)
        hyp = np.array([0.2, -0.1, 0.4])
        sk1 = _gauss(data, 12, 42)
        sk2 = _gauss(data2, 12, 42)  # same seed: same realized projection
        f1 = complete_joint_f_test(fit_complete(sk1), sk1, hyp)
        f2 = complete_joint_f_test(fit_complete(sk2), sk2, np.linalg.solve(A, hyp))
        assert f1.p_value == pytest.approx(f2.p_value, rel=1e-8)
        m = np.array([1.0, 2.0, -1.0])
        p1 = partial_linear_combination_test(fit_partial(sk1, _partial_inputs(data)), sk1, m)
        p2 = partial_linear_combination_test(fit_partial(sk2, _partial_inputs(data2)), sk2, A.T @ m)
        assert p1.p_value == pytest.approx(p2.p_value, rel=1e-8)


@st.composite
def _small_designs(draw):
    """A small regression (p <= 4, k <= 16, n <= 80), a sketch and a null.

    Noise, signal and null each span several orders of magnitude, so the
    statistics reach both tails of their laws.
    """
    p = draw(st.integers(1, 4))
    k = draw(st.integers(p + 2, 16))
    n = draw(st.integers(k, 80))
    spec = SketchSpec(kind=draw(st.sampled_from(list(SketchKind))), k=k,
                      seed=draw(st.integers(0, 2**32 - 1)))
    scale = st.floats(1e-3, 1e3)
    beta = draw(scale) * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    hyp = draw(scale) * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    data = make_dataset(n, p, beta, sigma2=draw(scale) ** 2, seed=spec.seed,
                        intercept=draw(st.booleans()))
    return data, spec, hyp


# what a pivot that cannot be formed on a valid design raises; a DomainError
# (TestResult's own check of its p-value among them) is a failure here
_UNFORMED_PIVOT = (AssumptionViolated, DegenerateSSR, NegativeDenominator, NonFinite)


class TestPValuesInUnitInterval:
    """Every test the package returns has a p-value in [0, 1], and every
    interval contains its estimate; a pivot that cannot be formed raises a
    typed error instead of returning one."""

    @settings(max_examples=200, deadline=None)
    @given(case=_small_designs())
    def test_every_p_value(self, case):
        data, spec, hyp = case
        try:
            sk = apply_sketch(data, spec, want_w_star=True)
            complete, star = fit_complete(sk), fit_efficient_star(sk)
            partial = fit_partial(sk, _partial_inputs(data))
        except RankDeficient:
            assume(False)  # an empty CountSketch bucket or rank-deficient sketch
        p = data.p
        e_hyp = data.y - data.X @ hyp
        yty = float(e_hyp @ e_hyp)

        def univariate():
            try:
                return [partial_univariate_chi2_test(partial, float(hyp[0]), spec.k)]
            except ZeroEstimate:  # unformed for this pivot alone: it divides by beta_p
                return []

        # (estimate the returned intervals are centred on, call)
        calls = [
            (None, lambda: [complete_joint_f_test(complete, sk, hyp)]),
            (None, lambda: list(wstar_exact_tests(star, sk, yty, hyp, 1.0))),
            (None, lambda: [complete_sampling_joint_test(complete, data.X.T @ data.X, data.n,
                                                         spec.k, p, hyp)]),
            (complete.beta, lambda: complete_marginal_t_tests(complete, sk, hyp, 0.95)),
            (complete.beta, lambda: complete_marginal_t_tests(complete, sk, hyp, 0.95,
                                                              Regime.REPEATED_SAMPLE)),
            (star.beta, lambda: wstar_marginal_t_tests(star, sk, yty, hyp, 0.95)),
        ]
        if p == 1:
            calls.append((None, univariate))
        for j in range(p):
            unit = np.eye(p)[j]
            calls += [
                (None, lambda u=unit: [partial_linear_combination_test(partial, sk, u)]),
                (None, lambda u=unit: [partial_linear_combination_test(partial, sk, u,
                                                                       Regime.REPEATED_SAMPLE)]),
            ]
        returned = 0
        for estimate, call in calls:
            try:
                results = call()
            except _UNFORMED_PIVOT:
                continue
            for res in results:
                res, ci = res if isinstance(res, tuple) else (res, None)
                assert 0.0 <= res.p_value <= 1.0, res
                if ci is not None:
                    assert ci.contains(estimate[ci.coefficient_index]), (ci, estimate)
                returned += 1
        assert returned > 0
