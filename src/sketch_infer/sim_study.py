"""Monte-Carlo calibration harness for the sketched estimators and pivots.

Two experiment designs: repeated sketching (one dataset, many projections;
estimator histograms are compared to their exact sketching laws) and
repeated sampling (fixed covariates, fresh response and projection per
replicate; pivot histograms are compared to their approximate null laws).
Replicates are independent tasks with per-replicate derived seeds, so a run
is bit-reproducible from its root seed regardless of scheduling.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .core_model import (
    DataSet,
    ModelTruth,
    draw_response,
    fit_full,
    response_mean,
    simulate_response,
)
from .densities import (
    complete_sketching_t_params,
    mvt_marginal_cdf,
    sample_partial_sketching_rep,
)
from .errors import DomainError, EmptyInput, NegativeDenominator, NonFinite
from .estimators import PartialInputs, fit_complete, fit_partial, sigma2_hat_complete
from .inference import Regime, marginal_t_statistic, partial_t_statistic
from .sketch_ops import SketchKind, SketchSpec, apply_sketch, derive_seed
from .special_fn import dist_quantile, student_t

PAPER_BETA = np.arange(-5.0, 6.0)  # (-5, -4, ..., 5), p = 11

__all__ = [
    "SimConfig",
    "ResultTable",
    "SimReport",
    "paper_config",
    "desk_config",
    "run_repeated_sketching",
    "run_repeated_sampling",
    "ks_statistic",
]


@dataclass(frozen=True)
class SimConfig:
    """Design of one Monte-Carlo experiment."""

    n: int
    p: int
    k: int
    m: int
    beta0: np.ndarray
    sigma2: float
    sketch_kinds: tuple
    regime: Regime
    targets: tuple
    root_seed: int
    alpha: float = 0.05
    ci_level: float = 0.95
    rep_draws: int = 100_000
    overlay_points: int = 512

    def __post_init__(self):
        b = np.asarray(self.beta0, dtype=float).reshape(-1)
        if b.size != self.p:
            raise DomainError(f"beta0 has length {b.size}, expected p={self.p}")
        if self.m < 1:
            raise DomainError("m must be >= 1")
        if self.k <= self.p + 3:
            # partial paths need positive (k-p)(k-p-3) variance denominators
            raise DomainError(f"need k > p + 3 (got k={self.k}, p={self.p})")
        if any(t < 0 or t >= self.p for t in self.targets):
            raise DomainError("target indices must lie in [0, p)")
        kinds = tuple(SketchKind(s) for s in self.sketch_kinds)
        object.__setattr__(self, "beta0", b)
        object.__setattr__(self, "sketch_kinds", kinds)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "regime", Regime(self.regime))

    def to_jsonable(self) -> dict:
        return {
            "n": self.n, "p": self.p, "k": self.k, "m": self.m,
            "beta0": list(self.beta0), "sigma2": self.sigma2,
            "sketch_kinds": [s.value for s in self.sketch_kinds],
            "regime": self.regime.value, "targets": list(self.targets),
            "root_seed": self.root_seed, "alpha": self.alpha,
            "ci_level": self.ci_level, "rep_draws": self.rep_draws,
            "overlay_points": self.overlay_points,
        }


def paper_config(regime: Regime, sketch_kinds=tuple(SketchKind), m: int = 10_000,
                 root_seed: int = 20240817) -> SimConfig:
    """The reference design: n = 10^4, p = 11, k = 21, beta = -5..5, sigma^2 = 1."""
    return SimConfig(
        n=10_000, p=11, k=21, m=m, beta0=PAPER_BETA.copy(), sigma2=1.0,
        sketch_kinds=tuple(sketch_kinds), regime=regime, targets=(0, 5),
        root_seed=root_seed,
    )


def desk_config(regime: Regime, sketch_kinds=(SketchKind.GAUSSIAN,), m: int = 2_000,
                root_seed: int = 20240817) -> SimConfig:
    """Smaller default (n = 2000) for quick runs; same p, k and coefficients."""
    return SimConfig(
        n=2_000, p=11, k=21, m=m, beta0=PAPER_BETA.copy(), sigma2=1.0,
        sketch_kinds=tuple(sketch_kinds), regime=regime, targets=(0, 5),
        root_seed=root_seed,
    )


@dataclass
class ResultTable:
    """One histogrammed series with its reference-law diagnostics."""

    name: str
    sketch: str
    samples: np.ndarray = field(repr=False)
    n_error: int = 0
    bin_edges: np.ndarray | None = None
    counts: np.ndarray | None = None
    ks_statistic: float | None = None
    ks_p: float | None = None
    coverage: float | None = None
    rejection_rate: float | None = None
    negative_denominator_rate: float | None = None
    overlay_x: np.ndarray | None = None
    overlay_pdf: np.ndarray | None = None

    def to_jsonable(self) -> dict:
        def arr(a):
            return None if a is None else [float(v) for v in a]

        return {
            "name": self.name,
            "sketch": self.sketch,
            "count": int(self.samples.size),
            "n_error": self.n_error,
            "bin_edges": arr(self.bin_edges),
            "counts": None if self.counts is None else [int(c) for c in self.counts],
            "ks_statistic": self.ks_statistic,
            "ks_p": self.ks_p,
            "coverage": self.coverage,
            "rejection_rate": self.rejection_rate,
            "negative_denominator_rate": self.negative_denominator_rate,
            "overlay_x": arr(self.overlay_x),
            "overlay_pdf": arr(self.overlay_pdf),
        }


@dataclass
class SimReport:
    config: SimConfig
    tables: list
    beta_F: np.ndarray | None
    runtime_seconds: float

    def table(self, name: str, sketch) -> ResultTable:
        key = sketch.value if isinstance(sketch, SketchKind) else str(sketch)
        for t in self.tables:
            if t.name == name and t.sketch == key:
                return t
        raise KeyError(f"no table ({name}, {key})")

    def to_jsonable(self) -> dict:
        return {
            "schema": "sketch-infer/1",
            "kind": "simulation_report",
            "config": self.config.to_jsonable(),
            "beta_F": None if self.beta_F is None else [float(b) for b in self.beta_F],
            "runtime_seconds": self.runtime_seconds,
            "tables": [t.to_jsonable() for t in self.tables],
        }

    def write_json(self, path) -> None:
        text = json_text(self.to_jsonable())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def write_csvs(self, directory) -> list:
        """One CSV per table: bin_left, bin_right, count, theory_x, theory_pdf."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for t in self.tables:
            if t.bin_edges is None:
                continue
            fname = f"{t.sketch}__{t.name}.csv".replace("[", "_").replace("]", "")
            path = os.path.join(directory, fname)
            nb = len(t.counts)
            ng = 0 if t.overlay_x is None else len(t.overlay_x)
            rows = max(nb, ng)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("bin_left,bin_right,count,theory_x,theory_pdf\n")
                for i in range(rows):
                    left = f"{t.bin_edges[i]!r}" if i < nb else ""
                    right = f"{t.bin_edges[i + 1]!r}" if i < nb else ""
                    cnt = f"{int(t.counts[i])}" if i < nb else ""
                    tx = f"{t.overlay_x[i]!r}" if i < ng else ""
                    tp = f"{t.overlay_pdf[i]!r}" if i < ng else ""
                    fh.write(f"{left},{right},{cnt},{tx},{tp}\n")
            paths.append(path)
        return paths

    def summary_lines(self) -> list:
        lines = [f"{'table':38s} {'sketch':18s} {'KS':>8s} {'cover':>7s} {'reject':>7s} {'negden':>7s}"]
        for t in self.tables:
            ks = "" if t.ks_statistic is None else f"{t.ks_statistic:.4f}"
            cov = "" if t.coverage is None else f"{t.coverage:.3f}"
            rej = "" if t.rejection_rate is None else f"{t.rejection_rate:.3f}"
            neg = "" if t.negative_denominator_rate is None else f"{t.negative_denominator_rate:.4f}"
            lines.append(f"{t.name:38s} {t.sketch:18s} {ks:>8s} {cov:>7s} {rej:>7s} {neg:>7s}")
        return lines


def json_text(doc) -> str:
    """``doc`` as indented, key-sorted JSON text with a trailing newline.

    JSON has no NaN or Infinity, so a non-finite value raises NonFinite
    (before anything is written) instead of producing an invalid document.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFinite(f"report holds a non-finite value: {exc}") from exc


def ks_statistic(samples, cdf) -> tuple:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    ``cdf`` is a callable evaluating the reference law on an array.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    if m == 0:
        raise EmptyInput("KS statistic needs at least one sample")
    c = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    d = max(float(np.max(hi - c)), float(np.max(c - lo)))
    p = float(special.kolmogorov(np.sqrt(m) * d))
    return d, p


def _ks_or_none(samples, cdf):
    if np.asarray(samples).size < 2:
        return None, None
    return ks_statistic(samples, cdf)


def _make_dataset(cfg: SimConfig) -> tuple:
    """Intercept column plus i.i.d. standard normal covariates."""
    rng = np.random.default_rng(derive_seed(cfg.root_seed, 0))
    X = np.empty((cfg.n, cfg.p))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((cfg.n, cfg.p - 1))
    truth = ModelTruth(beta_0=cfg.beta0, sigma2=cfg.sigma2)
    y = simulate_response(X, truth, derive_seed(cfg.root_seed, 1))
    return DataSet(X=X, y=y), truth


def _histogram(samples: np.ndarray):
    if samples.size == 0:
        return np.array([0.0, 1.0]), np.array([0])
    edges = np.histogram_bin_edges(samples, bins="fd")
    counts, edges = np.histogram(samples, bins=edges)
    return edges, counts


def _t_overlay(df: int, points: int):
    lo = dist_quantile(student_t(df), 0.001)
    hi = dist_quantile(student_t(df), 0.999)
    x = np.linspace(lo, hi, points)
    return x, stats.t.pdf(x, df)


# Gaussian kernel terms beyond this many bandwidths are below e^-72 of the
# kernel peak; with <= 10^5 points their sum is far under double roundoff
_KDE_CUTOFF = 12.0
# grid points evaluated together: bounds the (points x window) scratch
# buffer to ~1.3 MB at 20 000 points
_KDE_BLOCK = 8


def _gaussian_kde_sorted(pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate of the sorted sample ``pts`` at ``x``.

    The same estimate as ``scipy.stats.gaussian_kde(pts)(x)``: Scott's
    bandwidth h = std(pts, ddof=1) N^(-1/5), equal weights.  Each grid point
    sums only over the points within _KDE_CUTOFF bandwidths, found by
    bisection in the sorted sample, so the result differs from summing every
    term by summation order and roundoff alone.
    """
    N = pts.size
    if N < 2 or pts[0] == pts[-1]:
        raise DomainError("KDE overlay needs reference draws with positive spread")
    h = float(np.std(pts, ddof=1)) * N ** -0.2
    lo = np.searchsorted(pts, x - _KDE_CUTOFF * h, side="left")
    hi = np.searchsorted(pts, x + _KDE_CUTOFF * h, side="right")
    out = np.empty(x.size)
    for s in range(0, x.size, _KDE_BLOCK):
        e = min(s + _KDE_BLOCK, x.size)
        z = np.subtract.outer(x[s:e], pts[lo[s:e].min():hi[s:e].max()])
        z /= h
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        out[s:e] = z.sum(axis=1)
    return out / (N * h * np.sqrt(2.0 * np.pi))


def _partial_overlay(ref: np.ndarray, points: int) -> tuple:
    """Grid and density of the beta_p overlay from the sorted reference draws.

    A Gaussian KDE of the draws thinned by a stride to ~20 000 points, on
    ``points`` equally spaced values from the 0.001 to the 0.999 quantile.
    """
    lo, hi = np.quantile(ref, [0.001, 0.999])
    x = np.linspace(lo, hi, points)
    return x, _gaussian_kde_sorted(ref[:: max(1, ref.size // 20_000)], x)


def _finish_table(t: ResultTable) -> ResultTable:
    t.bin_edges, t.counts = _histogram(t.samples)
    return t


def run_repeated_sketching(cfg: SimConfig) -> SimReport:
    """One dataset, cfg.m independent sketches per sketch kind.

    Per target coordinate j this collects the complete and partial estimates,
    the exact marginal pivot at the realized beta_F (its null law is
    t_{k-p}), the zero-null statistics of both estimators with their
    rejection indicators, and the marginal confidence-interval coverage of
    beta_F.
    """
    if cfg.regime is not Regime.REPEATED_SKETCH:
        raise DomainError("config regime must be repeated_sketch")
    t_start = time.perf_counter()
    data, truth = _make_dataset(cfg)
    full = fit_full(data)
    gram_inv = np.linalg.inv(data.X.T @ data.X)
    partial_in = PartialInputs(Xty=data.X.T @ data.y, yty=float(data.y @ data.y))
    n, p, k, m = cfg.n, cfg.p, cfg.k, cfg.m
    eq_t = complete_sketching_t_params(full, gram_inv, k, p)

    # the partial-sketch reference law does not depend on the sketch kind:
    # its sorted draws and overlay are computed once per target
    rep_ref, rep_overlay = {}, {}
    for j in cfg.targets:
        e = np.zeros(p)
        e[j] = 1.0
        rep_ref[j] = np.sort(sample_partial_sketching_rep(
            e, full, gram_inv, k, p, cfg.rep_draws, derive_seed(cfg.root_seed, 2 + j)
        ))
        rep_overlay[j] = _partial_overlay(rep_ref[j], cfg.overlay_points)
        for a in rep_overlay[j]:
            a.flags.writeable = False  # shared by every kind's beta_p table

    unit = {j: np.eye(p)[j] for j in cfg.targets}
    tq_complete = dist_quantile(student_t(k - p), 1.0 - cfg.alpha / 2.0)
    tq_ci = dist_quantile(student_t(k - p), (1.0 + cfg.ci_level) / 2.0)
    tq_partial = dist_quantile(student_t(k - p + 1), 1.0 - cfg.alpha / 2.0)

    tables = []
    for kind_idx, kind in enumerate(cfg.sketch_kinds):
        seed_base = 10_000 + kind_idx * m

        def one(r, _kind=kind, _base=seed_base):
            spec = SketchSpec(kind=_kind, k=k, seed=derive_seed(cfg.root_seed, _base + r))
            sk = apply_sketch(data, spec)
            cfit = fit_complete(sk)
            pfit = fit_partial(sk, partial_in)
            row = {}
            for j in cfg.targets:
                null_stat, se = marginal_t_statistic(cfit, sk, j, full.beta_F[j])
                try:
                    part_stat = partial_t_statistic(pfit, sk, unit[j])
                except NegativeDenominator:
                    part_stat = np.nan
                row[j] = (cfit.beta[j], pfit.beta[j], null_stat, se, part_stat)
            return row

        rows = [one(r) for r in range(m)]

        for j in cfg.targets:
            bs = np.array([r[j][0] for r in rows])
            bp = np.array([r[j][1] for r in rows])
            nullstat = np.array([r[j][2] for r in rows])
            se = np.array([r[j][3] for r in rows])
            part_all = np.array([r[j][4] for r in rows])
            part_stat = part_all[~np.isnan(part_all)]
            n_negden = m - part_stat.size
            zero_stat = bs / se  # marginal pivot against the zero null
            cover = np.abs(nullstat) <= tq_ci  # CI inverts the same pivot

            tb = ResultTable(f"beta_s[{j}]", kind.value, bs)
            tb.ks_statistic, tb.ks_p = _ks_or_none(bs, lambda x: mvt_marginal_cdf(eq_t, j, x))
            sd = np.sqrt(eq_t.scale_matrix[j, j])
            tb.coverage = float(np.mean(cover))
            loc = eq_t.location[j]
            tb.overlay_x = np.linspace(
                loc + sd * dist_quantile(student_t(eq_t.df), 0.001),
                loc + sd * dist_quantile(student_t(eq_t.df), 0.999),
                cfg.overlay_points,
            )
            tb.overlay_pdf = stats.t.pdf((tb.overlay_x - loc) / sd, eq_t.df) / sd
            tables.append(_finish_table(tb))

            ref = rep_ref[j]
            tpb = ResultTable(f"beta_p[{j}]", kind.value, bp)
            tpb.ks_statistic, tpb.ks_p = _ks_or_none(
                bp, lambda x: np.searchsorted(ref, x, side="right") / ref.size
            )
            tpb.overlay_x, tpb.overlay_pdf = rep_overlay[j]
            tables.append(_finish_table(tpb))

            tnull = ResultTable(f"pivot_complete_null[{j}]", kind.value, nullstat)
            tnull.ks_statistic, tnull.ks_p = _ks_or_none(nullstat, lambda x: stats.t.cdf(x, k - p))
            tnull.rejection_rate = float(np.mean(np.abs(zero_stat) > tq_complete))
            tnull.overlay_x, tnull.overlay_pdf = _t_overlay(k - p, cfg.overlay_points)
            tables.append(_finish_table(tnull))

            tpart = ResultTable(f"pivot_partial_zero[{j}]", kind.value, part_stat, n_error=n_negden)
            if part_stat.size:
                tpart.ks_statistic, tpart.ks_p = _ks_or_none(
                    part_stat, lambda x: stats.t.cdf(x, k - p + 1)
                )
                tpart.rejection_rate = float(np.mean(np.abs(part_stat) > tq_partial))
            tpart.negative_denominator_rate = n_negden / m
            tpart.overlay_x, tpart.overlay_pdf = _t_overlay(k - p + 1, cfg.overlay_points)
            tables.append(_finish_table(tpart))

    return SimReport(
        config=cfg, tables=tables, beta_F=full.beta_F,
        runtime_seconds=time.perf_counter() - t_start,
    )


def run_repeated_sampling(cfg: SimConfig) -> SimReport:
    """Fixed covariates, fresh response and sketch per replicate.

    Collects the approximate marginal pivots for beta_0 at its true value
    (null law t_{k-p}) and the partial zero-null statistics (t_{k-p+1} when
    the true coordinate is zero), confidence-interval coverage of beta_0,
    plus the sketched residual sum of squares and the derived variance
    estimate for moment checks.
    """
    if cfg.regime is not Regime.REPEATED_SAMPLE:
        raise DomainError("config regime must be repeated_sample")
    t_start = time.perf_counter()
    data, truth = _make_dataset(cfg)
    X = data.X
    mean = response_mean(X, truth)
    n, p, k, m = cfg.n, cfg.p, cfg.k, cfg.m

    unit = {j: np.eye(p)[j] for j in cfg.targets}
    tq_complete = dist_quantile(student_t(k - p), 1.0 - cfg.alpha / 2.0)
    tq_ci = dist_quantile(student_t(k - p), (1.0 + cfg.ci_level) / 2.0)
    tq_partial = dist_quantile(student_t(k - p + 1), 1.0 - cfg.alpha / 2.0)

    tables = []
    for kind_idx, kind in enumerate(cfg.sketch_kinds):
        seed_base = 10_000 + kind_idx * 2 * m

        def one(r, _kind=kind, _base=seed_base):
            y = draw_response(mean, truth.sigma2, derive_seed(cfg.root_seed, _base + 2 * r))
            d = data.with_response(y)
            spec = SketchSpec(kind=_kind, k=k, seed=derive_seed(cfg.root_seed, _base + 2 * r + 1))
            sk = apply_sketch(d, spec)
            cfit = fit_complete(sk)
            pfit = fit_partial(sk, PartialInputs(Xty=X.T @ y, yty=float(y @ y)))
            s2hat = sigma2_hat_complete(cfit.SSR_s, n, k, p)
            row = {"ssr_s": cfit.SSR_s, "sigma2_hat": s2hat}
            for j in cfg.targets:
                null_stat, se = marginal_t_statistic(cfit, sk, j, truth.beta_0[j])
                try:
                    part_stat = partial_t_statistic(pfit, sk, unit[j], extra_variance=s2hat)
                except NegativeDenominator:
                    part_stat = np.nan
                row[j] = (null_stat, se, cfit.beta[j], part_stat)
            return row

        rows = [one(r) for r in range(m)]

        ssr = np.array([r["ssr_s"] for r in rows])
        s2h = np.array([r["sigma2_hat"] for r in rows])
        tables.append(_finish_table(ResultTable("ssr_s", kind.value, ssr)))
        tables.append(_finish_table(ResultTable("sigma2_hat", kind.value, s2h)))

        for j in cfg.targets:
            nullstat = np.array([r[j][0] for r in rows])
            se = np.array([r[j][1] for r in rows])
            bs = np.array([r[j][2] for r in rows])
            part_all = np.array([r[j][3] for r in rows])
            part_stat = part_all[~np.isnan(part_all)]
            n_negden = m - part_stat.size
            zero_stat = bs / se
            cover = np.abs(nullstat) <= tq_ci

            tnull = ResultTable(f"pivot_complete_null[{j}]", kind.value, nullstat)
            tnull.ks_statistic, tnull.ks_p = _ks_or_none(nullstat, lambda x: stats.t.cdf(x, k - p))
            tnull.rejection_rate = float(np.mean(np.abs(zero_stat) > tq_complete))
            tnull.coverage = float(np.mean(cover))
            tnull.overlay_x, tnull.overlay_pdf = _t_overlay(k - p, cfg.overlay_points)
            tables.append(_finish_table(tnull))

            tpart = ResultTable(f"pivot_partial_zero[{j}]", kind.value, part_stat, n_error=n_negden)
            if part_stat.size:
                tpart.ks_statistic, tpart.ks_p = _ks_or_none(
                    part_stat, lambda x: stats.t.cdf(x, k - p + 1)
                )
                tpart.rejection_rate = float(np.mean(np.abs(part_stat) > tq_partial))
            tpart.negative_denominator_rate = n_negden / m
            tpart.overlay_x, tpart.overlay_pdf = _t_overlay(k - p + 1, cfg.overlay_points)
            tables.append(_finish_table(tpart))

    return SimReport(
        config=cfg, tables=tables, beta_F=None,
        runtime_seconds=time.perf_counter() - t_start,
    )
