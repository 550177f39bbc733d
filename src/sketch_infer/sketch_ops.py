"""Random projection operators: Gaussian, subsampled Hadamard, Clarkson-Woodruff.

Each operator is applied to the column-concatenation [y | X] (``DataSet.yX``,
built once per dataset) in a single pass, so the sketched response and
design share one realization of the projection.  The dense k x n matrix is
never materialized: the Gaussian and Hadamard sketches stream over column
blocks of S (for the Hadamard sketch, only the k sampled rows of the
Walsh-Hadamard matrix, factored into one k x block base and a k x n_blocks
table of row signs), and the Clarkson-Woodruff sketch scatters rows into
hash buckets.

``apply_sketch`` is the one path from a dataset to a sketch: it checks the
size, seeds the generator, runs the kind's kernel on [y | X] and splits the
result.  A kernel ``(A, k, rng, want_w_star) -> (B, W)`` returns B = S A and,
on request, W = S S^T (else None); only the kernels differ between kinds, and
a new projection is one more entry of ``_KERNELS``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core_model import DataSet
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    InfeasibleSketchSize,
    NonFinite,
    WStarUnavailable,
)

# columns of a Gaussian sketch drawn at once; fixed so that the draws (and
# so the realization) are bit-identical whether or not W* is requested
_GAUSS_CHUNK = 1 << 16
# column block of every streamed matrix product (the drawn Gaussian columns,
# the sampled Hadamard rows): fixed, so the summation order (the
# realization's last bits) is fixed; small, so a k x block x (p + 1) product
# wakes no BLAS threads to compete with forked harness workers (one
# 21 x 10^4 x 12 product does); a power of two, so the sampled Hadamard rows
# factor over the blocks and the blocks tile each drawn Gaussian chunk
_BLOCK = 1 << 10


class SketchKind(str, enum.Enum):
    GAUSSIAN = "gaussian"
    HADAMARD = "hadamard"
    CLARKSON_WOODRUFF = "clarkson_woodruff"


@dataclass(frozen=True)
class SketchSpec:
    """Description of a k x n random projection: kind, target rows, seed."""

    kind: SketchKind
    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise InfeasibleSketchSize(f"sketch size k must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class SketchedData:
    """Sketched design X_s = S X and response y_s = S y, plus provenance.

    ``W_star`` is the k x k byproduct S S^T, populated only on request; it
    enables the exact generalized-least-squares style inference paths.

    Xs and ys may carry the same leading axes, a stack of sketches of one
    kind and size (see ``stack``), which the fits and pivots take at once.
    """

    Xs: np.ndarray
    ys: np.ndarray
    spec: SketchSpec
    n: int
    p: int
    W_star: np.ndarray | None = None

    def __post_init__(self):
        k, lead = self.spec.k, self.ys.shape[:-1]
        if self.Xs.shape != (*lead, k, self.p) or self.ys.shape != (*lead, k):
            raise DimensionMismatch(
                f"sketched shapes {self.Xs.shape}/{self.ys.shape} inconsistent with (k={k}, p={self.p})"
            )
        if not (np.isfinite(self.Xs).all() and np.isfinite(self.ys).all()):
            raise NonFinite("the sketched data contain NaN or infinite entries "
                            "(the sketch overflowed: the data's entries are too large)")
        if self.W_star is not None:
            W = self.W_star
            if W.shape != (k, k):
                raise DimensionMismatch(f"W_star has shape {W.shape}, expected ({k}, {k})")
            if not np.allclose(W, W.T, atol=1e-10 * max(1.0, np.abs(W).max())):
                raise DomainError("W_star is not symmetric")

    @classmethod
    def stack(cls, sketches) -> SketchedData:
        """One sketch whose Xs and ys stack those of ``sketches`` (of one kind
        and size, without W*) along a leading axis.  Its spec is the first
        sketch's: the fits read only its k.  Sketches of another kind, k, n
        or p raise ``DimensionMismatch``; an empty list ``EmptyInput``."""
        if not sketches:
            raise EmptyInput("cannot stack an empty list of sketches")
        first = sketches[0]
        shape = (first.spec.kind, first.spec.k, first.n, first.p)
        for s in sketches:
            if (s.spec.kind, s.spec.k, s.n, s.p) != shape:
                raise DimensionMismatch(
                    f"cannot stack a {s.spec.kind.value} sketch (k={s.spec.k}, n={s.n}, p={s.p}) "
                    f"with a {first.spec.kind.value} sketch (k={first.spec.k}, n={first.n}, "
                    f"p={first.p})")
        return cls(Xs=np.stack([s.Xs for s in sketches]), ys=np.stack([s.ys for s in sketches]),
                   spec=first.spec, n=first.n, p=first.p)


def derive_seed(root_seed: int, index: int) -> int:
    """Derive the seed for one replicate from a root seed.

    Uses a spawn-key of the splittable counter-based SeedSequence, so any
    subset of replicates can be generated independently and in parallel
    while the whole collection stays reproducible from ``root_seed``.
    """
    ss = np.random.SeedSequence(root_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _split(B: np.ndarray):
    return np.ascontiguousarray(B[:, 1:]), np.ascontiguousarray(B[:, 0])


def _padded_size(n: int) -> int:
    """n', the power of two the Hadamard sketch zero-pads n rows to."""
    return 1 << (n - 1).bit_length()


def _check_feasible(data: DataSet, spec: SketchSpec, want_w_star: bool) -> None:
    # k <= p cannot support any downstream fit; S S^T is singular with
    # probability 1 when k > n; the Hadamard sketch samples k distinct rows
    # of an n' x n' transform
    if spec.k <= data.p:
        raise InfeasibleSketchSize(f"sketch size must exceed p (got k={spec.k}, p={data.p})")
    if want_w_star and spec.k > data.n:
        raise WStarUnavailable(f"W_star requires k <= n (got k={spec.k}, n={data.n})")
    if spec.kind is SketchKind.HADAMARD and spec.k > (n_pad := _padded_size(data.n)):
        raise InfeasibleSketchSize(f"hadamard sketch needs k <= padded size (k={spec.k}, n'={n_pad})")


def _gaussian(A: np.ndarray, k: int, rng, want_w_star: bool):
    """Apply a Gaussian sketch with i.i.d. N(0, 1/k) entries.

    The projection is drawn in fixed column chunks and applied immediately,
    in products over fixed column blocks of each chunk, so memory stays
    O(k * chunk) and the realization depends only on (n, k, seed).
    """
    n, m = A.shape
    B = np.zeros((k, m))
    W = np.zeros((k, k)) if want_w_star else None
    scale = 1.0 / np.sqrt(k)
    for start in range(0, n, _GAUSS_CHUNK):
        stop = min(start + _GAUSS_CHUNK, n)
        Sc = rng.standard_normal((k, stop - start))
        Sc *= scale
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            B += Sc[:, lo - start:hi - start] @ A[lo:hi]
        if W is not None:
            W += Sc @ Sc.T
    return B, W


def _walsh_rows(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries H[rows, cols] of the unnormalized Hadamard matrix (natural order)."""
    bits = np.bitwise_count(rows[:, None].astype(np.uint64) & cols[None, :].astype(np.uint64))
    # the +-1 sign in int8, then one cast: float arithmetic on the parity
    # array measured about twice as slow
    return (1 - 2 * (bits & 1).view(np.int8)).astype(float)


def _hadamard(A: np.ndarray, k: int, rng, want_w_star: bool):
    """Subsampled randomized Hadamard sketch.

    Rows are zero-padded to the next power of two n', multiplied by random
    signs, transformed by the normalized Walsh-Hadamard transform (1/sqrt(n')),
    and k distinct rows are sampled uniformly; the result is scaled by
    sqrt(n'/k) so that E[S^T S] restricted to the original coordinates is the
    identity.  Only the k sampled rows of the transform are computed, block by
    block over the n real columns, so the padding costs nothing: O(k n (p+1))
    time and O(k * block) extra memory.

    As block is a power of two, column c = b * block + l of the sampled rows
    factors as H[i, c] = H[i mod block, l] * H[i div block, b]: one k x block
    base and one k x n_blocks table of row signs stand for all the rows.
    Every product is an exact +-1 times a data value, so this equals the
    block-by-block product with the sampled rows bit for bit.
    """
    n, m = A.shape
    n_pad = _padded_size(n)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    idx = rng.choice(n_pad, size=k, replace=False)
    block = _BLOCK
    base = _walsh_rows(idx, np.arange(min(block, n)))  # columns < block see only i mod block
    row_signs = _walsh_rows(idx // block, np.arange(-(-n // block)))
    SA = A * signs[:, None]
    B = np.zeros((k, m))
    for j, start in enumerate(range(0, n, block)):
        stop = min(start + block, n)
        C = base[:, :stop - start] @ SA[start:stop]
        C *= row_signs[:, j, None]
        B += C
    # combined scaling: (1/sqrt(n')) for the transform, sqrt(n'/k) overall
    B *= 1.0 / np.sqrt(k)
    W = None
    if want_w_star:
        # rows of S are orthogonal over the padded space: S_full S_full^T = (n'/k) I;
        # subtract the contribution of the padding columns to get S S^T over the
        # n real columns
        W = (n_pad / k) * np.eye(k)
        if n_pad > n:
            pad_cols = np.arange(n, n_pad)
            Hp = _walsh_rows(idx, pad_cols) / np.sqrt(k)
            W -= Hp @ Hp.T
    return B, W


def _clarkson_woodruff(A: np.ndarray, k: int, rng, want_w_star: bool):
    """Clarkson-Woodruff (CountSketch) projection.

    Each input row i is assigned a uniform bucket h(i) in {1..k} and a sign
    s(i); output row b is the signed sum of the rows hashed to it.  A single
    streaming pass, O(n (p+1)) time.  Left unscaled: one +-1 per column of S
    already gives E[S^T S] = I exactly.
    """
    n, m = A.shape
    buckets = rng.integers(0, k, n)
    signs = rng.integers(0, 2, n) * 2.0 - 1.0
    # one contiguous row per column of [y | X], so each bincount reads it in place
    signed = np.multiply(A.T, signs, order="C")
    B = np.empty((k, m))
    for j in range(m):
        B[:, j] = np.bincount(buckets, weights=signed[j], minlength=k)
    W = None
    if want_w_star:
        # S rows are disjoint +-1 indicators, so S S^T is diagonal with the
        # bucket occupancy counts
        W = np.diag(np.bincount(buckets, minlength=k).astype(float))
    return B, W


# kind -> kernel (A = [y | X], k, rng, want_w_star) -> (B = S A, W = S S^T or None)
_KERNELS = {
    SketchKind.GAUSSIAN: _gaussian,
    SketchKind.HADAMARD: _hadamard,
    SketchKind.CLARKSON_WOODRUFF: _clarkson_woodruff,
}


def apply_sketch(data: DataSet, spec: SketchSpec, want_w_star: bool = False) -> SketchedData:
    """Sketch ``data.yX`` with the kernel of ``spec.kind``, seeded by ``spec.seed``.

    ``want_w_star`` also returns S S^T.  Infeasible sizes raise before any draw.
    """
    _check_feasible(data, spec, want_w_star)
    rng = np.random.default_rng(spec.seed)
    # data near the largest double overflow B: SketchedData reports that
    # as NonFinite, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        B, W = _KERNELS[spec.kind](data.yX, spec.k, rng, want_w_star)
    Xs, ys = _split(B)
    return SketchedData(Xs=Xs, ys=ys, spec=spec, n=data.n, p=data.p, W_star=W)


def apply_gaussian(data: DataSet, spec: SketchSpec, want_w_star: bool = False) -> SketchedData:
    """``apply_sketch`` for a Gaussian ``spec``; see ``_gaussian``."""
    if spec.kind is not SketchKind.GAUSSIAN:
        raise DomainError(f"spec.kind is {spec.kind}, expected gaussian")
    return apply_sketch(data, spec, want_w_star)
