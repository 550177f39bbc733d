"""Full-data fit and response simulation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular

from sketch_infer.core_model import (
    DataSet,
    ModelTruth,
    _solve_triangular,
    draw_response,
    fit_full,
    response_mean,
    simulate_response,
)
from sketch_infer.errors import DomainError, NonFinite, RankDeficient

from conftest import ks_distance, make_dataset


class TestDataSet:
    def test_rejects_rank_deficiency(self):
        X = np.ones((10, 2))  # duplicated column
        with pytest.raises(RankDeficient):
            DataSet(X=X, y=np.arange(10.0))

    def test_rejects_nonfinite(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        y = np.arange(10.0)
        X[3, 1] = np.nan
        with pytest.raises(NonFinite):
            DataSet(X=X, y=y)

    def test_overflowing_qr_raises_non_finite_without_warnings(self):
        # finite entries whose column norms overflow leave an infinite R
        # diagonal: a typed NonFinite, not a rank message with a NaN ratio
        X = np.column_stack([np.full(20, 1e308), np.arange(20) * 5e306])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFinite, match="overflowed"):
                DataSet(X=X, y=np.arange(20.0))

    def test_zero_design_is_rank_deficient_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankDeficient, match="= 0.000e"):
                DataSet(X=np.zeros((10, 2)), y=np.arange(10.0))

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            DataSet(X=np.eye(3), y=np.arange(3.0))


class TestWithResponse:
    def _data(self):
        rng = np.random.default_rng(4)
        return DataSet(X=rng.standard_normal((12, 3)), y=rng.standard_normal(12))

    def test_matches_constructor(self):
        data = self._data()
        y = np.arange(12)  # integer input is converted like the constructor's
        swapped = data.with_response(y)
        fresh = DataSet(X=data.X, y=y)
        assert isinstance(swapped, DataSet)
        np.testing.assert_array_equal(swapped.X, fresh.X)
        np.testing.assert_array_equal(swapped.y, fresh.y)
        assert swapped.y.dtype == fresh.y.dtype
        assert (swapped.n, swapped.p) == (fresh.n, fresh.p)
        np.testing.assert_array_equal(data.y, self._data().y)  # original untouched

    def test_shares_x_without_copy(self):
        data = self._data()
        assert data.with_response(np.zeros(12)).X is data.X

    def test_rejects_nonfinite(self):
        y = np.zeros(12)
        y[5] = np.nan
        with pytest.raises(NonFinite):
            self._data().with_response(y)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            self._data().with_response(np.zeros(11))


class TestStackedData:
    def test_stack_is_read_only_y_then_x(self):
        data = make_dataset(20, 3, np.ones(3), seed=2)
        np.testing.assert_array_equal(data.yX, np.column_stack([data.y, data.X]))
        assert data.yX is data.yX and not data.yX.flags.writeable

    def test_swapped_response_rebuilds_stack(self):
        # the copy's stack is the parent's with y overwritten: the parent's
        # own stack keeps its y
        data = make_dataset(20, 3, np.ones(3), seed=2)
        y2, y3 = np.arange(20.0), -np.arange(20.0)
        swapped = data.with_response(y2)
        np.testing.assert_array_equal(swapped.with_response(y3).yX,
                                      np.column_stack([y3, data.X]))
        np.testing.assert_array_equal(swapped.yX, np.column_stack([y2, data.X]))
        np.testing.assert_array_equal(data.yX, np.column_stack([data.y, data.X]))
        assert not swapped.yX.flags.writeable


class TestSolveTriangular:
    """The dtrtrs helper against scipy.linalg.solve_triangular, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 12), nrhs=st.sampled_from([None, 1, 3]),
           lower=st.booleans(), trans=st.booleans(), fortran=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, size, nrhs, lower, trans, fortran, seed):
        rng = np.random.default_rng(seed)
        T = rng.standard_normal((size, size)) + 4.0 * np.eye(size)
        T = np.tril(T) if lower else np.triu(T)
        T = np.asfortranarray(T) if fortran else np.ascontiguousarray(T)
        b = rng.standard_normal(size if nrhs is None else (size, nrhs))
        x = _solve_triangular(T, b, lower=lower, trans=trans)
        ref = solve_triangular(T, b, lower=lower, trans="T" if trans else "N")
        assert x.shape == b.shape and np.array_equal(x, ref)

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_nan_raises_nonfinite(self, where):
        T = np.triu(np.ones((3, 3)))
        b = np.ones(3)
        if where == "matrix":
            T[0, 2] = np.nan
        else:
            b[1] = np.nan
        with pytest.raises(NonFinite):
            _solve_triangular(T, b)

    def test_singular_raises_rank_deficient(self):
        T = np.triu(np.ones((3, 3)))
        T[2, 2] = 0.0
        with pytest.raises(RankDeficient):
            _solve_triangular(T, np.ones(3))


class TestFitFull:
    def test_constant_column_exact_fit(self):
        X = np.ones((4, 1))
        y = np.full(4, 2.0)
        fit = fit_full(DataSet(X=X, y=y))
        assert fit.beta_F == pytest.approx([2.0])
        assert fit.SSR_F == pytest.approx(0.0, abs=1e-24)

    def test_noiseless_recovers_truth(self, rng):
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        beta0 = np.array([1.0, -2.0, 0.5, 3.0])
        fit = fit_full(DataSet(X=X, y=X @ beta0))
        np.testing.assert_allclose(fit.beta_F, beta0, atol=1e-10)
        assert fit.SSR_F < 1e-18 * float(beta0 @ beta0)

    def test_against_normal_equations(self, rng):
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        fit = fit_full(DataSet(X=X, y=y))
        ref = np.linalg.solve(X.T @ X, X.T @ y)  # brute-force oracle
        np.testing.assert_allclose(fit.beta_F, ref, rtol=1e-8, atol=1e-10)

    def test_sum_of_squares_split(self, rng):
        data = make_dataset(60, 4, [1.0, 0.5, -1.0, 2.0], seed=3)
        fit = fit_full(data)
        total = float(data.y @ data.y)
        assert abs(fit.SSR_F + fit.SSM_F - total) <= 1e-10 * total
        assert fit.SSR_F >= 0 and fit.SSM_F >= 0

    def test_reparameterization_equivariance(self, rng):
        data = make_dataset(50, 3, [1.0, -1.0, 2.0], seed=5)
        fit = fit_full(data)
        for _ in range(5):
            A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            fit2 = fit_full(DataSet(X=data.X @ A, y=data.y))
            np.testing.assert_allclose(fit2.beta_F, np.linalg.solve(A, fit.beta_F),
                                       rtol=1e-8, atol=1e-10)
            assert fit2.SSR_F == pytest.approx(fit.SSR_F, rel=1e-8)

    def test_ssr_chi2_law(self):
        # SSR_F / sigma^2 ~ chi2_{n-p} over repeated responses
        n, p = 30, 3
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta0 = np.array([1.0, 2.0, -1.0])
        truth = ModelTruth(beta_0=beta0, sigma2=2.0)
        draws = np.empty(10_000)
        for i in range(draws.size):
            y = simulate_response(X, truth, seed=1000 + i)
            draws[i] = fit_full(DataSet(X=X, y=y)).SSR_F / truth.sigma2
        assert ks_distance(draws, lambda x: stats.chi2.cdf(x, n - p)) < 0.02


class TestSimulateResponse:
    def test_zero_noise_exact(self, rng):
        X = rng.standard_normal((12, 2))
        truth = ModelTruth(beta_0=np.array([1.5, -0.5]), sigma2=0.0)
        np.testing.assert_array_equal(simulate_response(X, truth, seed=0), X @ truth.beta_0)

    def test_deterministic(self, rng):
        X = rng.standard_normal((12, 2))
        truth = ModelTruth(beta_0=np.array([1.5, -0.5]), sigma2=1.0)
        a = simulate_response(X, truth, seed=99)
        b = simulate_response(X, truth, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_mc_moment(self, rng):
        m, n = 10_000, 100
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 1))])
        truth = ModelTruth(beta_0=np.array([0.7, -0.3]), sigma2=1.0)
        total = 0.0
        for i in range(m):
            total += simulate_response(X, truth, seed=i).mean()
        grand = total / m
        assert abs(grand - (X @ truth.beta_0).mean()) < 3.0 * np.sqrt(truth.sigma2 / (m * n))

    def test_dimension_check(self, rng):
        X = rng.standard_normal((12, 2))
        with pytest.raises(DomainError):
            simulate_response(X, ModelTruth(beta_0=np.zeros(3), sigma2=1.0), seed=0)

    def test_split_draw_matches_one_shot_formula(self, rng):
        X = rng.standard_normal((40, 3))
        truth = ModelTruth(beta_0=np.array([1.5, -0.5, 2.0]), sigma2=2.5)
        mean = response_mean(X, truth)
        for seed in (0, 7, 123):
            expected = X @ truth.beta_0 + np.sqrt(2.5) * np.random.default_rng(seed).standard_normal(40)
            np.testing.assert_array_equal(draw_response(mean, truth.sigma2, seed), expected)
            np.testing.assert_array_equal(simulate_response(X, truth, seed), expected)
        noiseless = draw_response(mean, 0.0, 0)
        np.testing.assert_array_equal(noiseless, mean)
        assert noiseless is not mean

    def test_mean_validates_design(self, rng):
        X = rng.standard_normal((12, 2))
        X[3, 1] = np.nan
        with pytest.raises(NonFinite):
            response_mean(X, ModelTruth(beta_0=np.zeros(2), sigma2=1.0))
