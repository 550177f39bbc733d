"""Sketched estimators: identities, Monte-Carlo oracles, moment formulas."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular

from sketch_infer.core_model import DataSet, fit_full
from sketch_infer import estimators
from sketch_infer.errors import (
    DegenerateSSR,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    GammaNonpositive,
    MissingWStar,
    RankDeficient,
)
from sketch_infer.estimators import (
    PartialInputs,
    fit_complete,
    fit_efficient_star,
    fit_partial,
    partial_residual_ss_expectation,
    sigma2_hat_complete,
)
from sketch_infer.inference import _wstar_ssr
from sketch_infer.sketch_ops import (
    SketchKind,
    SketchSpec,
    SketchedData,
    apply_gaussian,
    apply_sketch,
    derive_seed,
)

from conftest import ks_distance, make_dataset


def _gauss(data, k, seed, want_w_star=False):
    return apply_gaussian(data, SketchSpec(kind=SketchKind.GAUSSIAN, k=k, seed=seed),
                          want_w_star=want_w_star)


def _ssr_star(sk, yty):
    """SSR* of the star fit on ``sk`` at the zero null, y'y = ``yty``."""
    return _wstar_ssr(fit_efficient_star(sk), sk, yty, np.zeros(sk.p))[1]


def _partial_inputs(data):
    return PartialInputs(Xty=data.X.T @ data.y, yty=float(data.y @ data.y))


class TestPartialInputsStack:
    def test_stacks_rows(self):
        a, b = PartialInputs(Xty=np.ones(3), yty=4.0), PartialInputs(Xty=np.arange(3.0), yty=9.0)
        st_ = PartialInputs.stack([a, b])
        np.testing.assert_array_equal(st_.Xty, [np.ones(3), np.arange(3.0)])
        np.testing.assert_array_equal(st_.yty, [4.0, 9.0])

    def test_empty_list_raises_empty_input(self):
        with pytest.raises(EmptyInput):
            PartialInputs.stack([])

    def test_different_p_raises_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PartialInputs.stack([PartialInputs(Xty=np.ones(3), yty=4.0),
                                 PartialInputs(Xty=np.ones(2), yty=4.0)])


class TestFitComplete:
    def test_exact_fit_zero_ssr(self, rng):
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        beta = np.array([1.0, 2.0, -1.0])
        data = DataSet(X=X, y=X @ beta)  # y_s lies in the column space of X_s
        fit = fit_complete(_gauss(data, 8, 4))
        assert fit.SSR_s == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-8)

    def test_orthogonal_square_sketch_identity(self, rng):
        # with S'S = I the sketched minimizer is the full minimizer exactly
        data = make_dataset(20, 3, [1.0, -1.0, 0.5], seed=6)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        sk = SketchedData(Xs=Q @ data.X, ys=Q @ data.y,
                          spec=SketchSpec(kind=SketchKind.GAUSSIAN, k=20, seed=0),
                          n=20, p=3)
        fit = fit_complete(sk)
        full = fit_full(data)
        np.testing.assert_allclose(fit.beta, full.beta_F, rtol=1e-8, atol=1e-10)
        assert fit.SSR_s == pytest.approx(full.SSR_F, rel=1e-8)

    def test_mc_mean_targets_full_estimate(self):
        data = make_dataset(400, 4, [2.0, -1.0, 0.5, 1.5], seed=9)
        full = fit_full(data)
        k, reps = 12, 4000
        acc = np.zeros((reps, 4))
        for r in range(reps):
            acc[r] = fit_complete(_gauss(data, k, derive_seed(31, r))).beta
        se = acc.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(acc.mean(axis=0) - full.beta_F) < 3 * se)

    def test_equivariance_same_sketch(self, rng):
        data = make_dataset(60, 3, [1.0, 0.5, -0.5], seed=12)
        fitted = fit_complete(_gauss(data, 10, 55))
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        data2 = DataSet(X=data.X @ A, y=data.y)
        fitted2 = fit_complete(_gauss(data2, 10, 55))  # same seed: same realized S
        np.testing.assert_allclose(fitted2.beta, np.linalg.solve(A, fitted.beta),
                                   rtol=1e-8, atol=1e-10)
        assert fitted2.SSR_s == pytest.approx(fitted.SSR_s, rel=1e-8)

    def test_beta_ssr_uncorrelated(self):
        data = make_dataset(300, 3, [1.0, -2.0, 0.5], seed=15)
        reps = 10_000
        b1 = np.empty(reps)
        ssr = np.empty(reps)
        for r in range(reps):
            f = fit_complete(_gauss(data, 10, derive_seed(77, r)))
            b1[r], ssr[r] = f.beta[0], f.SSR_s
        corr = np.corrcoef(b1, ssr)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(reps)

    def test_ssr_conditional_chi2_law(self):
        data = make_dataset(300, 3, [1.0, -2.0, 0.5], seed=18)
        full = fit_full(data)
        k, p = 12, 3
        reps = 10_000
        draws = np.empty(reps)
        for r in range(reps):
            draws[r] = fit_complete(_gauss(data, k, derive_seed(5, r))).SSR_s
        scaled = draws / (full.SSR_F / k)
        assert ks_distance(scaled, lambda x: stats.chi2.cdf(x, k - p)) < 0.02


class TestFitPartial:
    def test_gamma_value(self):
        data = make_dataset(120, 11, np.arange(-5.0, 6.0), seed=3)
        fit = fit_partial(_gauss(data, 21, 2), _partial_inputs(data))
        assert fit.gamma == pytest.approx(9.0 / 21.0)
        assert fit.gamma == pytest.approx(3.0 / 7.0)

    def test_mc_mean_unbiased(self):
        data = make_dataset(400, 4, [2.0, -1.0, 0.5, 1.5], seed=9)
        full = fit_full(data)
        reps = 10_000
        acc = np.zeros((reps, 4))
        for r in range(reps):
            acc[r] = fit_partial(_gauss(data, 14, derive_seed(41, r)), _partial_inputs(data)).beta
        se = acc.std(axis=0) / np.sqrt(reps)
        assert np.all(np.abs(acc.mean(axis=0) - full.beta_F) < 3 * se)

    def test_univariate_positive_support(self, rng):
        x = np.abs(rng.standard_normal(80)) + 0.5
        y = 2.0 * x + 0.1 * rng.standard_normal(80)
        data = DataSet(X=x[:, None], y=y)
        assert float(x @ y) > 0
        pin = _partial_inputs(data)
        for r in range(300):
            fit = fit_partial(_gauss(data, 9, derive_seed(8, r)), pin)
            assert fit.beta[0] > 0  # inverse-gamma support on (0, inf)

    def test_records_ssm_p(self):
        data = make_dataset(100, 3, [1.0, 2.0, -1.0], seed=30)
        pin = _partial_inputs(data)
        fit = fit_partial(_gauss(data, 10, 5), pin)
        assert fit.SSM_p == pytest.approx(float(pin.Xty @ fit.beta))
        assert fit.SSM_p > 0

    def test_partial_inputs_of_dataset(self):
        data = make_dataset(200, 5, np.arange(5.0), seed=4)
        pin, ref = PartialInputs.of(data), _partial_inputs(data)
        assert np.array_equal(pin.Xty, ref.Xty) and pin.yty == ref.yty

    def test_gamma_guard(self):
        data = make_dataset(50, 4, np.ones(4), seed=2)
        with pytest.raises(GammaNonpositive):
            fit_partial(_gauss(data, 5, 1), _partial_inputs(data))


class TestSharedQR:
    def test_one_factorization_per_sketch(self, monkeypatch):
        calls = []
        real = estimators._qr_full_rank

        def counting(A):
            calls.append(A.shape)
            return real(A)

        monkeypatch.setattr(estimators, "_qr_full_rank", counting)
        data = make_dataset(100, 3, [1.0, 2.0, -1.0], seed=30)
        sk = _gauss(data, 10, 5)
        fit_complete(sk)
        fit_partial(sk, _partial_inputs(data))
        assert calls == [(10, 3)]

    def test_bit_identical_to_own_factorization(self):
        data = make_dataset(100, 3, [1.0, 2.0, -1.0], seed=31)
        pin = _partial_inputs(data)
        sk = _gauss(data, 10, 6)
        cfit, pfit = fit_complete(sk), fit_partial(sk, pin)
        # reference: each fit factoring Xs itself
        Q, R = np.linalg.qr(sk.Xs)
        qty = Q.T @ sk.ys
        resid = sk.ys - Q @ qty
        ssr = float(resid @ resid)
        np.testing.assert_array_equal(cfit.beta, solve_triangular(R, qty, lower=False))
        gamma = (10 - 3 - 1) / 10
        rhs = solve_triangular(R, pin.Xty, trans="T", lower=False)
        np.testing.assert_array_equal(pfit.beta, gamma * solve_triangular(R, rhs, lower=False))
        np.testing.assert_array_equal(pfit.gram_s_factor, R)
        assert cfit.SSR_s == ssr and pfit.SSR_s == ssr
        alone = fit_partial(_gauss(data, 10, 6), pin)  # partial fit first on a fresh sketch
        np.testing.assert_array_equal(alone.beta, pfit.beta)
        assert alone.SSR_s == pfit.SSR_s

    def test_rank_deficient_sketch_raises_for_both_fits(self, rng):
        Xs = rng.standard_normal((10, 3))
        Xs[:, 2] = Xs[:, 1]
        sk = SketchedData(Xs=Xs, ys=rng.standard_normal(10),
                          spec=SketchSpec(kind=SketchKind.GAUSSIAN, k=10, seed=0), n=50, p=3)
        pin = PartialInputs(Xty=np.ones(3), yty=4.0)
        for _ in range(2):
            with pytest.raises(RankDeficient):
                fit_complete(sk)
            with pytest.raises(RankDeficient):
                fit_partial(sk, pin)


class TestEfficientStar:
    def test_square_sketch_identity(self):
        data = make_dataset(20, 3, [1.0, -1.0, 0.5], seed=6)
        full = fit_full(data)
        fit = fit_efficient_star(_gauss(data, 20, 9, want_w_star=True))
        np.testing.assert_allclose(fit.beta, full.beta_F, rtol=1e-8, atol=1e-10)

    def test_identity_wstar_matches_complete(self, rng):
        data = make_dataset(40, 3, [1.0, 0.0, 2.0], seed=4)
        base = _gauss(data, 9, 13)
        withW = SketchedData(Xs=base.Xs, ys=base.ys, spec=base.spec, n=base.n, p=base.p,
                             W_star=np.eye(9))
        np.testing.assert_array_equal(fit_efficient_star(withW).beta, fit_complete(base).beta)

    def test_missing_wstar(self):
        data = make_dataset(40, 3, np.ones(3), seed=4)
        with pytest.raises(MissingWStar):
            fit_efficient_star(_gauss(data, 9, 13))

    def test_variance_dominance(self):
        data = make_dataset(250, 3, [1.0, -2.0, 0.5], seed=21)
        reps = 4000
        bc = np.empty((reps, 3))
        bw = np.empty((reps, 3))
        for r in range(reps):
            sk = _gauss(data, 12, derive_seed(63, r), want_w_star=True)
            bc[r] = fit_complete(sk).beta
            bw[r] = fit_efficient_star(sk).beta
        tr_c = np.trace(np.cov(bc.T))
        tr_w = np.trace(np.cov(bw.T))
        assert tr_w <= tr_c


class TestSsrStar:
    def test_noiseless_square_sketch(self, rng):
        X = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        beta = np.array([1.0, 2.0, -1.0])
        data = DataSet(X=X, y=X @ beta)
        sk = _gauss(data, 20, 3, want_w_star=True)
        with pytest.raises(DegenerateSSR, match="roundoff floor"):
            _ssr_star(sk, float(data.y @ data.y))

    def test_square_sketch_equals_full_ssr(self):
        data = make_dataset(30, 3, [1.0, -1.0, 2.0], seed=44)
        full = fit_full(data)
        sk = _gauss(data, 30, 5, want_w_star=True)
        assert _ssr_star(sk, float(data.y @ data.y)) == pytest.approx(full.SSR_F, rel=1e-8)

    def test_bounded_by_total(self):
        data = make_dataset(80, 3, [1.0, -1.0, 2.0], seed=45)
        yty = float(data.y @ data.y)
        for r in range(50):
            sk = _gauss(data, 10, derive_seed(7, r), want_w_star=True)
            assert 0.0 <= _ssr_star(sk, yty) <= yty

    def test_chi2_law_null_centered(self):
        # exact chi2_{n-p} when the response mean is in the hypothesized null:
        # here beta_0 = 0, i.e. pure-noise data
        n, p, k = 120, 3, 10
        rng = np.random.default_rng(50)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        reps = 10_000
        draws = np.empty(reps)
        for r in range(reps):
            y = rng.standard_normal(n)
            sk = _gauss(DataSet(X=X, y=y), k, derive_seed(3, r), want_w_star=True)
            draws[r] = _ssr_star(sk, float(y @ y))
        assert ks_distance(draws, lambda x: stats.chi2.cdf(x, n - p)) < 0.02

    def test_signal_leak_documented(self):
        # with beta_0 != 0 the statistic picks up (1 - k/n) ||X beta_0||^2
        n, p, k = 200, 3, 10
        data = make_dataset(n, p, [3.0, -2.0, 1.0], seed=51)
        yty = float(data.y @ data.y)
        vals = [_ssr_star(_gauss(data, k, derive_seed(9, r), want_w_star=True), yty)
                for r in range(300)]
        assert np.mean(vals) > 2.0 * (n - p)  # far above the central chi2 mean


@st.composite
def _affine_maps(draw):
    """A design shape, a sketch, and the map y -> a y + X c with a null h."""
    p = draw(st.integers(1, 4))
    k = draw(st.integers(p + 2, 12))
    n = draw(st.integers(64, 128))
    a = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
    coef = st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)
    c, h = np.array(draw(coef)), np.array(draw(coef))
    spec = SketchSpec(kind=draw(st.sampled_from(list(SketchKind))), k=k,
                      seed=draw(st.integers(0, 2**32 - 1)))
    return n, p, a, c, h, spec


class TestFitEquivariance:
    """On one sketch, y -> a y + X c moves the fits as least squares dictates."""

    @settings(max_examples=150, deadline=None)
    @given(case=_affine_maps())
    def test_affine_response_map(self, case):
        n, p, a, c, h, spec = case
        data = make_dataset(n, p, np.linspace(-1.0, 1.0, p), seed=spec.seed, intercept=False)
        X, y = data.X, data.y
        try:
            sk = apply_sketch(data, spec, want_w_star=True)
            complete, star = fit_complete(sk), fit_efficient_star(sk)
        except RankDeficient:
            assume(False)  # an empty CountSketch bucket or rank-deficient sketch
        moved = apply_sketch(DataSet(X=X, y=a * y + X @ c), spec, want_w_star=True)
        scaled = apply_sketch(DataSet(X=X, y=a * y), spec, want_w_star=True)
        tol = 1e-9 * (abs(a) * np.linalg.norm(star.beta) + np.linalg.norm(c) + 1.0)

        moved_complete = fit_complete(moved)
        np.testing.assert_allclose(moved_complete.beta, a * complete.beta + c, rtol=0, atol=tol)
        assert moved_complete.SSR_s == pytest.approx(a * a * complete.SSR_s,
                                                     abs=1e-9 * moved_complete.yty_s)
        moved_star = fit_efficient_star(moved)
        np.testing.assert_allclose(moved_star.beta, a * star.beta + c, rtol=0, atol=tol)

        partial = fit_partial(sk, _partial_inputs(data))
        scaled_partial = fit_partial(scaled, PartialInputs(Xty=X.T @ (a * y), yty=a * a * (y @ y)))
        np.testing.assert_allclose(scaled_partial.beta, a * partial.beta, rtol=0,
                                   atol=1e-9 * abs(a) * (np.linalg.norm(partial.beta) + 1.0))

        e = y - X @ h
        moved_h = a * h + c
        e_moved = a * y + X @ c - X @ moved_h
        yty, yty_moved = float(e @ e), float(e_moved @ e_moved)
        _, ssr = _wstar_ssr(star, sk, yty, h)
        _, ssr_moved = _wstar_ssr(moved_star, moved, yty_moved, moved_h)
        assert ssr_moved == pytest.approx(a * a * ssr, abs=1e-9 * yty_moved)


class TestSigma2Hat:
    def test_zero_maps_to_zero(self):
        assert sigma2_hat_complete(0.0, 100, 10, 3) == 0.0

    def test_repeated_sampling_unbiased(self):
        n, p, k = 300, 3, 12
        rng = np.random.default_rng(60)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, 2.0, -1.0])
        reps = 4000
        ssr = np.empty(reps)
        for r in range(reps):
            y = X @ beta0 + rng.standard_normal(n)
            ssr[r] = fit_complete(_gauss(DataSet(X=X, y=y), k, derive_seed(13, r))).SSR_s
        est = ssr * k / ((n - p) * (k - p))
        se = est.std() / np.sqrt(reps)
        assert abs(est.mean() - 1.0) < 3 * se
        # and the raw mean matches sigma^2 (k-p)(n-p)/k
        se_raw = ssr.std() / np.sqrt(reps)
        assert abs(ssr.mean() - (k - p) * (n - p) / k) < 3 * se_raw

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma2_hat_complete(1.0, 5, 10, 5)
        with pytest.raises(DomainError):
            sigma2_hat_complete(-1.0, 100, 10, 3)

    @pytest.mark.parametrize("n,k,p,name", [
        ("50", 10, 1, "n"), (50, 10.0, 1, "k"), (50, 10, True, "p")])
    def test_sizes_are_integers(self, n, k, p, name):
        with pytest.raises(DomainError, match=f"^{name} takes an integer"):
            sigma2_hat_complete(3.0, n, k, p)


class TestPartialResidualExpectation:
    def test_zero_signal(self):
        assert partial_residual_ss_expectation(7.5, 0.0, 20, 3) == 7.5

    def test_large_k_limit(self):
        # the closed form tends to y'y - SSM_F (the full-fit residual SS)
        yty, ssm = 30.0, 5.0
        val = partial_residual_ss_expectation(yty, ssm, 10**6, 2)
        assert abs(val - (yty - ssm)) < 2e-5

    def test_variant_gap(self):
        # corrected constant exceeds the default by SSM_F/((k-p)(k-p-3))
        yty, ssm, k, p = 10.0, 4.0, 30, 3
        lo = partial_residual_ss_expectation(yty, ssm, k, p)
        hi = partial_residual_ss_expectation(yty, ssm, k, p, second_moment_correction=True)
        assert hi - lo == pytest.approx(ssm / ((k - p) * (k - p - 3)))

    def test_mc_adjudication(self):
        # Wishart-level oracle for E[(y - X b_p)'(y - X b_p)]; the corrected
        # constant should sit within the Monte-Carlo band
        rng = np.random.default_rng(70)
        n, p, k = 200, 3, 30
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(n)
        gram = X.T @ X
        a = X.T @ y
        yty = float(y @ y)
        ssm_f = float(a @ np.linalg.solve(gram, a))
        gamma = (k - p - 1) / k
        reps = 200_000
        G = stats.wishart(df=k, scale=gram / k).rvs(size=reps,
                                                    random_state=np.random.default_rng(71))
        vals = np.empty(reps)
        for i in range(reps):
            bp = gamma * np.linalg.solve(G[i], a)
            vals[i] = yty - 2 * float(a @ bp) + float(bp @ gram @ bp)
        mc, se = vals.mean(), vals.std() / np.sqrt(reps)
        corrected = partial_residual_ss_expectation(yty, ssm_f, k, p,
                                                    second_moment_correction=True)
        assert abs(corrected - mc) < 4 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            partial_residual_ss_expectation(1.0, 1.0, 6, 3)

    @pytest.mark.parametrize("k,p,name", [("20", 3, "k"), (20, 3.5, "p")])
    def test_sizes_are_integers(self, k, p, name):
        with pytest.raises(DomainError, match=f"^{name} takes an integer"):
            partial_residual_ss_expectation(1.0, 1.0, k, p)
