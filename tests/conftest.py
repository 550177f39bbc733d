"""Shared helpers for the test suite."""

import numpy as np
import pytest

from sketch_infer.core_model import DataSet


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a callable CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    c = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return max(float(np.max(hi - c)), float(np.max(c - lo)))


def ecdf_callable(reference):
    """Empirical CDF of a reference sample, usable as a KS target."""
    ref = np.sort(np.asarray(reference, dtype=float))

    def cdf(x):
        return np.searchsorted(ref, x, side="right") / ref.size

    return cdf


def make_dataset(n, p, beta, sigma2=1.0, seed=0, intercept=True) -> DataSet:
    rng = np.random.default_rng(seed)
    X = np.empty((n, p))
    if intercept:
        X[:, 0] = 1.0
        X[:, 1:] = rng.standard_normal((n, p - 1))
    else:
        X[:] = rng.standard_normal((n, p))
    y = X @ np.asarray(beta, dtype=float) + np.sqrt(sigma2) * rng.standard_normal(n)
    return DataSet(X=X, y=y)


def h_law_sample(params, seed, count: int) -> np.ndarray:
    """Draws from the H law by its defining gamma mixture: U | V ~ Gamma(alpha, 2V),
    V ~ Gamma(lam, 2)."""
    rng = np.random.default_rng(seed)
    v = rng.gamma(params.lam, 2.0, count)
    return rng.gamma(params.alpha, 2.0 * v)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
