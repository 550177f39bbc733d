"""Sketch operators: moment oracles, determinism, structural properties."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import hadamard as dense_hadamard

from sketch_infer import sketch_ops
from sketch_infer.core_model import DataSet
from sketch_infer.errors import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    InfeasibleSketchSize,
    NonFinite,
    WStarUnavailable,
)
from sketch_infer.sketch_ops import (
    SketchedData,
    SketchKind,
    SketchSpec,
    _check_feasible,
    _split,
    apply_gaussian,
    apply_sketch,
    derive_seed,
    derive_seeds,
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

    @pytest.mark.parametrize("chunk,block,n", [(1 << 16, 1 << 10, 2500), (16, 4, 50), (16, 4, 47)])
    def test_block_products_of_the_drawn_chunks(self, monkeypatch, chunk, block, n):
        # the normals are drawn chunk by chunk and each chunk is applied in
        # column blocks: the sketch is the block products summed in order
        monkeypatch.setattr(sketch_ops, "_GAUSS_CHUNK", chunk)
        monkeypatch.setattr(sketch_ops, "_BLOCK", block)
        k = 9
        data = make_dataset(n, 3, np.ones(3), seed=4)
        sk = apply_gaussian(data, _spec(SketchKind.GAUSSIAN, k, 12))
        gen = np.random.default_rng(12)
        S = np.hstack([gen.standard_normal((k, min(chunk, n - s))) for s in range(0, n, chunk)])
        S *= 1.0 / np.sqrt(k)
        A = np.column_stack([data.y, data.X])
        B = np.zeros((k, 4))
        for s in range(0, n, block):
            B += S[:, s:s + block] @ A[s:s + block]
        assert np.array_equal(sk.ys, B[:, 0]) and np.array_equal(sk.Xs, B[:, 1:])
        np.testing.assert_allclose(B, S @ A, rtol=1e-12, atol=1e-12)

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
            sk = apply_sketch(data, _spec(SketchKind.HADAMARD, k, derive_seed(4, r)))
            vals[r] = float(sk.Xs[:, 0] @ sk.Xs[:, 0])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - n) < 3 * se

    def test_padding_shapes(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # n=3 pads to 4
        data = DataSet(X=X, y=np.array([1.0, 2.0, 3.0]))
        sk = apply_sketch(data, _spec(SketchKind.HADAMARD, 3, 0))
        assert sk.Xs.shape == (3, 2) and sk.ys.shape == (3,)

    @staticmethod
    def _check_dense_transform(monkeypatch, block, n, k, seed):
        monkeypatch.setattr(sketch_ops, "_BLOCK", block)
        n_pad = 1 << (n - 1).bit_length()
        rng = np.random.default_rng(1)
        X = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        data = DataSet(X=X, y=y)
        sk = apply_sketch(data, _spec(SketchKind.HADAMARD, k, seed), want_w_star=True)
        gen = np.random.default_rng(seed)
        signs = gen.integers(0, 2, n) * 2.0 - 1.0
        idx = gen.choice(n_pad, size=k, replace=False)
        H = dense_hadamard(n_pad).astype(float)
        S = (H[idx][:, :n] * signs[None, :]) / np.sqrt(k)
        np.testing.assert_allclose(sk.Xs, S @ X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sk.ys, S @ y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sk.W_star, S @ S.T, rtol=1e-12, atol=1e-12)
        return idx

    def test_matches_dense_transform(self, monkeypatch):
        # reproduce the operator explicitly on a small power-of-two case; a
        # 2-column block makes the accumulation cross four block boundaries,
        # with row signs from two high bits of the sampled rows
        self._check_dense_transform(monkeypatch, block=2, n=8, k=3, seed=21)

    def test_matches_dense_transform_partial_block(self, monkeypatch):
        # n = 10 pads to 16: 4-column blocks end in a partial one, and the
        # three blocks take their row signs from two high bits
        idx = self._check_dense_transform(monkeypatch, block=4, n=10, k=5, seed=8)
        # the seed gives blocks 1 and 2 distinct, non-trivial row-sign patterns
        assert len({tuple((idx >> 2) & b) for b in range(3)}) == 3

    def test_wstar_with_padding(self, monkeypatch):
        # n = 6 pads to 8; W* must equal S S^T over the 6 real columns, and
        # the sketch S [y | X] is accumulated over 4-column blocks
        monkeypatch.setattr(sketch_ops, "_BLOCK", 4)
        n, k, seed = 6, 4, 33
        rng = np.random.default_rng(2)
        X = rng.standard_normal((n, 2))
        data = DataSet(X=X, y=rng.standard_normal(n))
        sk = apply_sketch(data, _spec(SketchKind.HADAMARD, k, seed), want_w_star=True)
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
        sk = apply_sketch(data, _spec(SketchKind.CLARKSON_WOODRUFF, 3, 7))
        nonzero = np.nonzero(sk.Xs[:, 0])[0]
        assert nonzero.size >= 1
        assert set(np.abs(sk.Xs[:, 0])) <= {0.0, 2.0}

    def test_zero_column_stays_zero(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.standard_normal(20), rng.standard_normal(20)])
        y = np.zeros(20)
        data = DataSet(X=X, y=y)
        sk = apply_sketch(data, _spec(SketchKind.CLARKSON_WOODRUFF, 5, 3))
        assert np.all(sk.ys == 0.0)

    def test_wstar_is_bucket_occupancy(self):
        data = make_dataset(30, 2, np.ones(2), seed=8)
        sk = apply_sketch(data, _spec(SketchKind.CLARKSON_WOODRUFF, 4, 11), want_w_star=True)
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

    @pytest.mark.parametrize("apply,kind", [(apply_gaussian, SketchKind.GAUSSIAN)])
    def test_operator_rejects_other_kinds(self, apply, kind):
        data = make_dataset(40, 3, np.ones(3), seed=2)
        for other in set(SketchKind) - {kind}:
            with pytest.raises(DomainError, match=f"expected {kind.value}$"):
                apply(data, _spec(other, 8, 0))

    def test_feasibility_errors_carry_their_exit_codes(self):
        data = make_dataset(10, 2, np.ones(2), seed=0)
        with pytest.raises(InfeasibleSketchSize) as small:
            SketchSpec(kind=SketchKind.GAUSSIAN, k=0, seed=0)
        with pytest.raises(InfeasibleSketchSize) as at_p:
            apply_sketch(data, _spec(SketchKind.HADAMARD, 2, 0))
        with pytest.raises(WStarUnavailable) as wstar:
            apply_sketch(data, _spec(SketchKind.CLARKSON_WOODRUFF, 11, 0), want_w_star=True)
        assert [e.value.exit_code for e in (small, at_p, wstar)] == [3, 3, 4]

    # a bare TypeError or KeyError, numpy's ValueError at the first draw, or
    # (k = True) a one-row sketch
    @pytest.mark.parametrize("fields,message", [
        ({"kind": "nope"}, r"^'nope' is not a valid SketchKind \(valid sketches: gaussian, "
                           r"hadamard, clarkson_woodruff\)$"),
        ({"k": 21.5}, r"^sketch k takes an integer, got 21\.5$"),
        ({"k": True}, r"^sketch k takes an integer, got True$"),
        ({"seed": 1.0}, r"^sketch seed takes an integer, got 1\.0$"),
        ({"seed": False}, r"^sketch seed takes an integer, got False$"),
        ({"seed": -1}, r"^sketch seed must be >= 0, got -1$"),
    ], ids=["kind", "k-float", "k-bool", "seed-float", "seed-bool", "seed-negative"])
    def test_spec_checks_its_fields(self, fields, message):
        with pytest.raises(DomainError, match=message):
            SketchSpec(**{"kind": SketchKind.GAUSSIAN, "k": 8, "seed": 0, **fields})

    def test_spec_takes_kind_values_and_numpy_integers(self):
        spec = SketchSpec(kind="hadamard", k=np.int64(8), seed=np.uint64(2**63))
        assert spec.kind is SketchKind.HADAMARD
        assert apply_sketch(make_dataset(40, 3, np.ones(3), seed=2), spec).Xs.shape == (8, 3)

    # a 6 x 2 design of order 5e307: its QR is finite, the sketched sums
    # overflow (Hadamard at every seed, the others at these)
    @pytest.mark.parametrize("kind,seed", [(SketchKind.HADAMARD, s) for s in range(4)]
                             + [(SketchKind.GAUSSIAN, 8), (SketchKind.CLARKSON_WOODRUFF, 48)])
    def test_overflow_is_non_finite_without_warning(self, kind, seed):
        X = 5e307 * np.column_stack([np.ones(6), np.tile([1.0, 0.5], 3)])
        data = DataSet(X=X, y=np.full(6, 5e307))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFinite, match="sketch overflowed"):
                apply_sketch(data, _spec(kind, 3, seed))

    def test_derive_seed_splits(self):
        seeds = {derive_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(5, 17) == derive_seed(5, 17)


# ---------------------------------------------------------------------------
# Seed derivation: SeedSequence is the oracle, bit for bit
# ---------------------------------------------------------------------------

def _spawned(root, i):
    """The seed of spawn key (i,) under ``root``, as numpy's SeedSequence derives it."""
    return int(np.random.SeedSequence(root, spawn_key=(i,)).generate_state(1, np.uint64)[0])


# roots of one to four 32-bit words and beyond the pool's four, and random 63-bit roots
_ROOTS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 100 + 3, 2 ** 160 + 11] + \
    np.random.default_rng(2024).integers(0, 2 ** 63, 6).tolist()


class TestSeedDerivation:
    @pytest.mark.parametrize("root", _ROOTS)
    def test_first_indices(self, root):
        assert derive_seeds(root, 0, 300) == [_spawned(root, i) for i in range(300)]

    @pytest.mark.parametrize("root", _ROOTS)
    def test_random_indices(self, root):
        rng = np.random.default_rng(root % 2 ** 32)
        # one-word keys, two-word keys, and keys of more words than the pool
        for i in (rng.integers(0, 2 ** 32, 40).tolist() + rng.integers(2 ** 32, 2 ** 63, 20).tolist()
                  + [2 ** 64 + 5, 2 ** 100 + 1, 2 ** 200 + 3]):
            assert derive_seed(root, i) == _spawned(root, i), i

    @pytest.mark.parametrize("root", _ROOTS[::3])
    @pytest.mark.parametrize("lo,hi", [(2 ** 32 - 3, 2 ** 32 + 3), (2 ** 64 - 3, 2 ** 64 + 3),
                                       (2 ** 96 - 2, 2 ** 96 + 2), (12_345_678_901, 12_345_679_001)])
    def test_ranges_across_word_boundaries(self, root, lo, hi):
        # a range whose keys differ in their number of words
        assert derive_seeds(root, lo, hi) == [_spawned(root, i) for i in range(lo, hi)]

    def test_numpy_integers_and_empty_range(self):
        assert derive_seed(np.int64(7), np.uint32(3)) == _spawned(7, 3)
        assert derive_seeds(7, 5, 5) == []

    @pytest.mark.parametrize("args", [(-1, 0, 1), (5, -1, 1), (5, 3, 2), (1.5, 0, 1),
                                      (True, 0, 1), (5, "0", 1)])
    def test_bad_arguments(self, args):
        with pytest.raises(DomainError):
            derive_seeds(*args)


# ---------------------------------------------------------------------------
# Reference operators: the block-by-block sampled-row Hadamard product and the
# strided-column CountSketch scatter, kept verbatim (the block size is read
# from sketch_ops so that tests can shrink it).  The factored operators must
# match them bit for bit.
# ---------------------------------------------------------------------------

def _concat(data: DataSet) -> np.ndarray:
    return np.column_stack([data.y, data.X])


def _walsh_rows(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries H[rows, cols] of the unnormalized Hadamard matrix (natural order)."""
    bits = np.bitwise_count(rows[:, None].astype(np.uint64) & cols[None, :].astype(np.uint64))
    return (1 - 2 * (bits & 1).view(np.int8)).astype(float)


def _apply_hadamard_reference(data: DataSet, spec: SketchSpec, want_w_star: bool = False):
    _check_feasible(data, spec, want_w_star)
    A = _concat(data)
    n, m = A.shape
    k = spec.k
    n_pad = 1 << int(np.ceil(np.log2(n)))
    if k > n_pad:
        raise DomainError(f"hadamard sketch needs k <= padded size (k={k}, n'={n_pad})")
    rng = np.random.default_rng(spec.seed)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    idx = rng.choice(n_pad, size=k, replace=False)
    B = np.zeros((k, m))
    for start in range(0, n, sketch_ops._BLOCK):
        stop = min(start + sketch_ops._BLOCK, n)
        Hb = _walsh_rows(idx, np.arange(start, stop))
        Hb *= signs[start:stop]
        B += Hb @ A[start:stop]
    B *= 1.0 / np.sqrt(k)
    Xs, ys = _split(B)
    W = None
    if want_w_star:
        W = (n_pad / k) * np.eye(k)
        if n_pad > n:
            pad_cols = np.arange(n, n_pad)
            Hp = _walsh_rows(idx, pad_cols) / np.sqrt(k)
            W -= Hp @ Hp.T
    return SketchedData(Xs=Xs, ys=ys, spec=spec, n=n, p=data.p, W_star=W)


def _apply_clarkson_woodruff_reference(data: DataSet, spec: SketchSpec,
                                       want_w_star: bool = False):
    _check_feasible(data, spec, want_w_star)
    A = _concat(data)
    n, m = A.shape
    k = spec.k
    rng = np.random.default_rng(spec.seed)
    buckets = rng.integers(0, k, n)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    signed = A * signs[:, None]
    B = np.empty((k, m))
    for j in range(m):
        B[:, j] = np.bincount(buckets, weights=signed[:, j], minlength=k)
    Xs, ys = _split(B)
    W = None
    if want_w_star:
        W = np.diag(np.bincount(buckets, minlength=k).astype(float))
    return SketchedData(Xs=Xs, ys=ys, spec=spec, n=n, p=data.p, W_star=W)


_REFERENCES = {
    SketchKind.HADAMARD: _apply_hadamard_reference,
    SketchKind.CLARKSON_WOODRUFF: _apply_clarkson_woodruff_reference,
}


def _assert_same_sketch(a: SketchedData, b: SketchedData) -> None:
    assert np.array_equal(a.Xs, b.Xs) and np.array_equal(a.ys, b.ys)
    assert (a.W_star is None) == (b.W_star is None)
    assert a.W_star is None or np.array_equal(a.W_star, b.W_star)


@st.composite
def _designs(draw):
    """(block, n, p, k, seed, want_w_star) with n below, at, above or off a block multiple."""
    block = draw(st.sampled_from([2, 4, 16, 1024]))
    n = draw(st.one_of(
        st.builds(lambda mult, off: max(mult * block + off, 2),
                  st.integers(1, 2048 // block + 1), st.sampled_from([-1, 0, 1])),
        st.integers(2, 2100),
    ))
    p = draw(st.integers(1, min(6, n - 1)))
    n_pad = 1 << (n - 1).bit_length()
    k = draw(st.integers(p + 1, min(n_pad, p + 40)))
    return block, n, p, k, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()) and k <= n


class TestMatchesReferenceOperators:
    @settings(max_examples=150, deadline=None)
    @given(design=_designs(), kind=st.sampled_from(list(_REFERENCES)))
    @example(design=(1024, 1023, 4, 9, 1, True), kind=SketchKind.HADAMARD)
    @example(design=(1024, 1024, 4, 9, 2, True), kind=SketchKind.HADAMARD)
    @example(design=(1024, 1025, 4, 9, 3, True), kind=SketchKind.HADAMARD)
    @example(design=(1024, 10_000, 11, 21, 4, True), kind=SketchKind.HADAMARD)
    @example(design=(1024, 10_000, 11, 21, 5, True), kind=SketchKind.CLARKSON_WOODRUFF)
    def test_bit_identical(self, design, kind):
        block, n, p, k, seed, want_w_star = design
        rng = np.random.default_rng(seed)
        data = DataSet(X=rng.standard_normal((n, p)), y=rng.standard_normal(n))
        spec = _spec(kind, k, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sketch_ops, "_BLOCK", block)
            _assert_same_sketch(apply_sketch(data, spec, want_w_star),
                                _REFERENCES[kind](data, spec, want_w_star))

    @pytest.mark.parametrize("kind", list(SketchKind))
    def test_response_swap_does_not_reuse_stale_stack(self, kind):
        # the parent's [y | X] holds the old y: a swapped response must
        # sketch exactly as a freshly built dataset does
        rng = np.random.default_rng(6)
        data = make_dataset(300, 3, np.ones(3), seed=7)
        spec = _spec(kind, 12, 8)
        apply_sketch(data, spec)
        y2 = rng.standard_normal(data.n)
        _assert_same_sketch(apply_sketch(data.with_response(y2), spec),
                            apply_sketch(DataSet(X=data.X, y=y2), spec))


class TestStack:
    """SketchedData.stack takes sketches of one kind and size; seeds differ by design."""

    def _sketches(self, *specs):
        data = make_dataset(64, 3, np.ones(3), seed=9)
        return [apply_sketch(data, _spec(kind, k, seed)) for kind, k, seed in specs]

    def test_seeds_may_differ(self):
        a, b = self._sketches((SketchKind.GAUSSIAN, 8, 1), (SketchKind.GAUSSIAN, 8, 2))
        st_ = SketchedData.stack([a, b])
        np.testing.assert_array_equal(st_.Xs, np.stack([a.Xs, b.Xs]))
        np.testing.assert_array_equal(st_.ys, np.stack([a.ys, b.ys]))

    def test_different_k_raises_dimension_mismatch(self):
        sketches = self._sketches((SketchKind.GAUSSIAN, 8, 1), (SketchKind.GAUSSIAN, 9, 2))
        with pytest.raises(DimensionMismatch, match="k=9"):
            SketchedData.stack(sketches)

    def test_different_kind_raises_dimension_mismatch(self):
        sketches = self._sketches((SketchKind.GAUSSIAN, 8, 1), (SketchKind.HADAMARD, 8, 1))
        with pytest.raises(DimensionMismatch, match="hadamard"):
            SketchedData.stack(sketches)

    def test_empty_list_raises_empty_input(self):
        with pytest.raises(EmptyInput):
            SketchedData.stack([])
