"""Sketch operators: moment oracles, determinism, structural properties."""

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import hadamard as dense_hadamard

from sketch_infer import sketch_ops
from sketch_infer.core_model import DataSet
from sketch_infer.errors import DomainError
from sketch_infer.sketch_ops import (
    SketchKind,
    SketchSpec,
    apply_clarkson_woodruff,
    apply_gaussian,
    apply_hadamard,
    apply_sketch,
    derive_seed,
)

from conftest import ks_distance, make_dataset


def _spec(kind, k, seed):
    return SketchSpec(kind=kind, k=k, seed=seed)


def _gram_moment_check(kind, n=50, p=2, k=10, reps=10_000, seed=123):
    """E[Xs'Xs] should equal X'X; compare within 3 Monte-Carlo SEs elementwise."""
    data = make_dataset(n, p, np.ones(p), seed=seed)
    target = data.X.T @ data.X
    acc = np.zeros((p, p))
    acc2 = np.zeros((p, p))
    for r in range(reps):
        sk = apply_sketch(data, _spec(kind, k, derive_seed(seed, r)))
        G = sk.Xs.T @ sk.Xs
        acc += G
        acc2 += G * G
    mean = acc / reps
    se = np.sqrt(np.maximum(acc2 / reps - mean**2, 0.0) / reps)
    assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-9)


class TestGaussian:
    def test_gram_moment_oracle(self):
        _gram_moment_check(SketchKind.GAUSSIAN)

    def test_square_sketch_whitened_recovers_full_solution(self, rng):
        # a square invertible S preserves the least-squares solution once the
        # S S^T metric is whitened out; the raw sketched solve is a GLS fit in
        # that metric and differs by O(1/sqrt(n))
        data = make_dataset(25, 3, [1.0, -2.0, 0.5], seed=2)
        sk = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, data.n, 5), want_w_star=True)
        L = np.linalg.cholesky(sk.W_star)
        beta_w = np.linalg.lstsq(np.linalg.solve(L, sk.Xs), np.linalg.solve(L, sk.ys),
                                 rcond=None)[0]
        beta_f = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        np.testing.assert_allclose(beta_w, beta_f, rtol=1e-8, atol=1e-8)

    def test_deterministic(self):
        data = make_dataset(40, 3, np.ones(3), seed=1)
        a = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, 8, 77))
        b = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, 8, 77))
        assert np.array_equal(a.Xs, b.Xs) and np.array_equal(a.ys, b.ys)

    def test_wstar_identical_realization(self):
        # requesting W* must not change the realized sketch
        data = make_dataset(40, 3, np.ones(3), seed=1)
        a = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, 8, 77))
        b = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, 8, 77), want_w_star=True)
        assert np.array_equal(a.Xs, b.Xs)
        assert b.W_star is not None and b.W_star.shape == (8, 8)
        assert np.all(np.linalg.eigvalsh(b.W_star) > 0)

    def test_wishart_diagonal_law(self):
        # orthonormal column x: k * ||S x||^2 ~ chi2_k
        n, k = 50, 10
        rng = np.random.default_rng(3)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        X = np.column_stack([x, rng.standard_normal(n)])
        data = DataSet(X=X, y=rng.standard_normal(n))
        draws = np.empty(10_000)
        for r in range(draws.size):
            sk = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, k, derive_seed(9, r)))
            draws[r] = k * float(sk.Xs[:, 0] @ sk.Xs[:, 0])
        assert ks_distance(draws, lambda v: stats.chi2.cdf(v, k)) < 0.02

    def test_wstar_needs_k_at_most_n(self):
        data = make_dataset(10, 2, np.ones(2), seed=0)
        with pytest.raises(DomainError):
            apply_gaussian(data, _spec(SketchKind.GAUSSIAN, 12, 0), want_w_star=True)


class TestHadamard:
    def test_gram_moment_oracle(self):
        _gram_moment_check(SketchKind.HADAMARD)

    def test_constant_column_isometry_in_expectation(self):
        # x = 1_n with n a power of two: E[||Sx||^2] = n
        n, k = 64, 8
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        data = DataSet(X=X, y=rng.standard_normal(n))
        vals = np.empty(4000)
        for r in range(vals.size):
            sk = apply_hadamard(data, _spec(SketchKind.HADAMARD, k, derive_seed(4, r)))
            vals[r] = float(sk.Xs[:, 0] @ sk.Xs[:, 0])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - n) < 3 * se

    def test_padding_shapes(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # n=3 pads to 4
        data = DataSet(X=X, y=np.array([1.0, 2.0, 3.0]))
        sk = apply_hadamard(data, _spec(SketchKind.HADAMARD, 3, 0))
        assert sk.Xs.shape == (3, 2) and sk.ys.shape == (3,)

    def test_matches_dense_transform(self, monkeypatch):
        # reproduce the operator explicitly on a small power-of-two case; a
        # 3-column block makes the accumulation cross uneven block boundaries
        monkeypatch.setattr(sketch_ops, "_HADAMARD_BLOCK", 3)
        n, k, seed = 8, 3, 21
        rng = np.random.default_rng(1)
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        data = DataSet(X=X, y=y)
        sk = apply_hadamard(data, _spec(SketchKind.HADAMARD, k, seed), want_w_star=True)
        gen = np.random.default_rng(seed)
        signs = gen.integers(0, 2, n) * 2.0 - 1.0
        idx = gen.choice(n, size=k, replace=False)
        H = dense_hadamard(n).astype(float)
        S = (H[idx] * signs[None, :]) / np.sqrt(k)
        np.testing.assert_allclose(sk.Xs, S @ X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sk.ys, S @ y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sk.W_star, S @ S.T, rtol=1e-12, atol=1e-12)

    def test_wstar_with_padding(self, monkeypatch):
        # n = 6 pads to 8; W* must equal S S^T over the 6 real columns, and
        # the sketch S [y | X] is accumulated over 4-column blocks
        monkeypatch.setattr(sketch_ops, "_HADAMARD_BLOCK", 4)
        n, k, seed = 6, 4, 33
        rng = np.random.default_rng(2)
        X = rng.standard_normal((n, 2))
        data = DataSet(X=X, y=rng.standard_normal(n))
        sk = apply_hadamard(data, _spec(SketchKind.HADAMARD, k, seed), want_w_star=True)
        gen = np.random.default_rng(seed)
        signs = gen.integers(0, 2, n) * 2.0 - 1.0
        idx = gen.choice(8, size=k, replace=False)
        H = dense_hadamard(8).astype(float)
        S = (H[idx][:, :n] * signs[None, :]) / np.sqrt(k)
        np.testing.assert_allclose(sk.Xs, S @ X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sk.ys, S @ data.y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sk.W_star, S @ S.T, rtol=1e-12, atol=1e-12)


class TestClarksonWoodruff:
    def test_gram_moment_oracle(self):
        _gram_moment_check(SketchKind.CLARKSON_WOODRUFF)

    def test_single_row(self):
        X = np.array([[2.0], [0.0]])  # n=2 minimal full-rank case
        data = DataSet(X=X, y=np.array([3.0, 0.0]))
        sk = apply_clarkson_woodruff(data, _spec(SketchKind.CLARKSON_WOODRUFF, 3, 7))
        nonzero = np.nonzero(sk.Xs[:, 0])[0]
        assert nonzero.size >= 1
        assert set(np.abs(sk.Xs[:, 0])) <= {0.0, 2.0}

    def test_zero_column_stays_zero(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.standard_normal(20), rng.standard_normal(20)])
        y = np.zeros(20)
        data = DataSet(X=X, y=y)
        sk = apply_clarkson_woodruff(data, _spec(SketchKind.CLARKSON_WOODRUFF, 5, 3))
        assert np.all(sk.ys == 0.0)

    def test_wstar_is_bucket_occupancy(self):
        data = make_dataset(30, 2, np.ones(2), seed=8)
        sk = apply_clarkson_woodruff(data, _spec(SketchKind.CLARKSON_WOODRUFF, 4, 11),
                                     want_w_star=True)
        gen = np.random.default_rng(11)
        buckets = gen.integers(0, 4, 30)
        np.testing.assert_array_equal(np.diag(sk.W_star),
                                      np.bincount(buckets, minlength=4).astype(float))


class TestSharedProperties:
    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_linearity_shared_realization(self, kind):
        # the same seed sketches y and X with one realized operator
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(32), rng.standard_normal((32, 2))])
        y1 = rng.standard_normal(32)
        y2 = rng.standard_normal(32)
        spec = _spec(kind, 6, 99)
        a = apply_sketch(DataSet(X=X, y=y1), spec)
        b = apply_sketch(DataSet(X=X, y=y2), spec)
        c = apply_sketch(DataSet(X=X, y=y1 + y2), spec)
        np.testing.assert_array_equal(a.Xs, b.Xs)
        np.testing.assert_allclose(a.ys + b.ys, c.ys, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_rejects_k_at_most_p(self, kind):
        data = make_dataset(40, 3, np.ones(3), seed=2)
        with pytest.raises(DomainError):
            apply_sketch(data, _spec(kind, 3, 0))

    def test_derive_seed_splits(self):
        seeds = {derive_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(5, 17) == derive_seed(5, 17)
