"""Monte-Carlo calibration harness for the sketched estimators and pivots.

Two experiment designs: repeated sketching (one dataset, many projections;
estimator histograms are compared to their exact sketching laws) and
repeated sampling (fixed covariates, fresh response and projection per
replicate; pivot histograms are compared to their approximate null laws).
No reference law is estimated from draws: the partial estimate's under
repeated sketching is evaluated as a one-dimensional chi-square mixture
(``densities.partial_sketching_law``).
Both run their replicates through one runner and one replicate-range
function, which reads its regime from the config, and build their tables
from one reference builder and one table builder.  Replicates are
independent tasks with per-replicate derived seeds, so a run is
bit-reproducible from its root seed regardless of scheduling: each sketch
kind's replicates are split into contiguous index ranges, one per usable
CPU, run in forked workers and joined in index order.  Within a range the
sketches are drawn one at a time and fitted and pivoted in stacks of a
fixed size, each replicate's values bit for bit those of its own library
calls.  A stack's seeds are derived in one vectorized pass of the seed
rule, and under repeated sampling each range writes every fresh response
into one private copy of [y | X] instead of copying it per replicate.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum

import numpy as np
from scipy import special

from .core_model import (
    DataSet,
    ModelTruth,
    _ResponseBuffer,
    draw_response,
    fit_full,
    response_mean,
    simulate_response,
)
from .densities import (
    complete_sketching_t_params,
    mvt_marginal_cdf,
    partial_sketching_cdf,
    partial_sketching_law,
    partial_sketching_pdf,
    partial_sketching_quantile,
)
from .errors import (
    DomainError,
    EmptyInput,
    NegativeDenominator,
    NonFinite,
    SketchInferError,
    WorkerFailed,
)
from .errors import _float_vector, _index, _integer, _probability, _real
from .estimators import PartialInputs, fit_complete, fit_partial, sigma2_hat_complete
from .inference import Regime, marginal_t_statistic, partial_t_statistic
from .sketch_ops import (
    SketchedData,
    SketchKind,
    SketchSpec,
    _sketch_kind,
    apply_sketch,
    derive_seed,
    derive_seeds,
)
from .special_fn import _t_pdf, dist_cdf, dist_quantile, student_t

SCHEMA = "sketch-infer/1"  # version tag of every JSON report the package writes
PAPER_BETA = np.arange(-5.0, 6.0)  # (-5, -4, ..., 5), p = 11
# replicates fitted and pivoted per stacked call: fixed, so that a range's
# stacks, and the memory they take, do not grow with m
_CHUNK = 128

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


@dataclass(frozen=True, eq=False)
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
    # accepted and checked, but read by nothing since the beta_p reference
    # law became exact; kept because the benchmark's set-up probe still
    # passes it, and goes when the benchmark drops it
    rep_draws: int = 100_000
    overlay_points: int = 512

    def __post_init__(self):
        for name, value in (("targets", self.targets), ("sketch_kinds", self.sketch_kinds)):
            if isinstance(value, str) or not np.iterable(value):
                raise DomainError(f"{name} takes a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))  # a generator is read once
        # each field's checker and its arguments after (name, value); p is checked first
        for name, check, *args in (
                ("k", _integer), ("p", _integer, 1), ("n", _integer, 1), ("m", _integer, 1),
                ("root_seed", _integer, 0), ("rep_draws", _integer, 0),
                ("overlay_points", _integer, 0), ("sigma2", _real, True), ("alpha", _probability),
                ("beta0", _float_vector, self.p)):
            object.__setattr__(self, name, check(name, getattr(self, name), *args))
        if not np.isfinite(self.beta0).all():
            raise DomainError(f"beta0 takes finite reals only, got {self.beta0.tolist()!r}")
        if self.k <= self.p + 3:
            # partial paths need positive (k-p)(k-p-3) variance denominators
            raise DomainError(f"need k > p + 3 (got k={self.k}, p={self.p})")
        targets = tuple(_index("targets", t, self.p) for t in self.targets)
        kinds = tuple(_sketch_kind(s) for s in self.sketch_kinds)
        for name, values in (("targets", targets), ("sketch_kinds", kinds)):
            if not values or len(set(values)) < len(values):
                raise DomainError(f"{name} must be a nonempty list of distinct values, "
                                  f"got {list(getattr(self, name))!r}")
        if self.regime not in list(Regime):  # compared by ==: an unhashable value is no error
            raise DomainError(f"regime must be one of {', '.join(Regime)}, got {self.regime!r}")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "sketch_kinds", kinds)
        object.__setattr__(self, "regime", Regime(self.regime))


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
    return replace(paper_config(regime, sketch_kinds, m, root_seed), n=2_000)


@dataclass(eq=False)
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
        return {**_plain(self, omit=("samples",)), "count": self.samples.size}


@dataclass(eq=False)
class SimReport:
    """The tables of one run.  ``workers`` (the processes that ran the
    replicates) is reported beside ``runtime_seconds`` but kept out of the
    JSON report, which does not depend on it."""

    config: SimConfig
    tables: list
    beta_F: np.ndarray | None
    runtime_seconds: float
    workers: int = 1

    def table(self, name: str, sketch) -> ResultTable:
        key = sketch.value if isinstance(sketch, SketchKind) else str(sketch)
        for t in self.tables:
            if t.name == name and t.sketch == key:
                return t
        raise KeyError(f"no table ({name}, {key})")

    def to_jsonable(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "simulation_report",
            **_plain(self, omit=("tables", "workers")),
            "tables": [t.to_jsonable() for t in self.tables],
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_jsonable())

    def write_csvs(self, directory) -> list:
        """One CSV per table: bin_left, bin_right, count, theory_x, theory_pdf.

        A row holds one bin and one overlay point; where the bins and the
        overlay differ in length, the shorter one's cells are left empty.
        """
        os.makedirs(directory, exist_ok=True)
        paths = []
        for t in self.tables:
            if t.bin_edges is None:
                continue
            fname = f"{t.sketch}__{t.name}.csv".replace("[", "_").replace("]", "")
            path = os.path.join(directory, fname)
            columns = [t.bin_edges[:-1], t.bin_edges[1:], t.counts, t.overlay_x, t.overlay_pdf]
            write_csv(path, ["bin_left", "bin_right", "count", "theory_x", "theory_pdf"],
                      itertools.zip_longest(*(() if c is None else c.tolist() for c in columns),
                                            fillvalue=""))
            paths.append(path)
        return paths

    def summary_lines(self) -> list:
        lines = [f"{'table':38s} {'sketch':18s} {'KS':>8s} {'cover':>7s} {'reject':>7s} {'negden':>7s}"]
        for t in self.tables:
            cells = [("" if v is None else f"{v:{spec}}").rjust(width) for v, spec, width in (
                (t.ks_statistic, ".4f", 8), (t.coverage, ".3f", 7), (t.rejection_rate, ".3f", 7),
                (t.negative_denominator_rate, ".4f", 7))]
            lines.append(f"{t.name:38s} {t.sketch:18s} {' '.join(cells)}")
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


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as json_text; a non-finite value writes nothing."""
    text = json_text(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, header: list, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` in the csv module's default dialect
    (CRLF line ends; a number as its repr, None as an empty cell)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _plain(value, omit=()):
    """``value`` in JSON-native types: a dataclass as a dict of its fields bar
    ``omit``, an enum as its value, a numpy array or scalar and a tuple as
    lists and Python numbers."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.name not in omit}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def ks_statistic(samples, cdf) -> tuple:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value, bit for bit
    those of scipy.stats' ``kstest(samples, cdf, method="asymp")``.

    ``cdf`` is a callable evaluating the reference law, a nondecreasing
    function, on an array.  It is evaluated only where the statistic may be
    attained: first at every stride-th order statistic (stride
    max(4, sqrt(n) / 6)), then inside each block between two of them whose
    bound exceeds the largest distance found.  In a block from the order
    statistics x_a to x_b the CDF lies in [F(x_a), F(x_b)], so its
    distances are at most F(x_b) - (a + 1) / n and b / n - F(x_a) (0-based
    a, b).  The statistic is the same maximum over the same values, taken
    over fewer of them: about two fifths of the points at n = 200, an
    eighth at n = 10^4.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise EmptyInput("KS statistic needs at least one sample")
    at = np.unique(np.append(np.arange(0, n, max(4, math.isqrt(n) // 6)), n - 1))
    c = cdf(x[at])
    d = max((c - at / n).max(), ((at + 1.0) / n - c).max())
    a, b = at[:-1], at[1:]
    open_block = np.maximum(c[1:] - (a + 1.0) / n, b / n - c[:-1]) > d
    inner = np.concatenate([np.arange(i + 1, j) for i, j in zip(a[open_block], b[open_block])]
                           + [np.arange(0)])
    if inner.size:
        c = cdf(x[inner])
        d = max(d, (c - inner / n).max(), ((inner + 1.0) / n - c).max())
    return float(d), float(np.clip(special.kolmogorov(d * np.sqrt(n)), 0.0, 1.0))


def _make_dataset(cfg: SimConfig) -> tuple:
    """Intercept column plus i.i.d. standard normal covariates."""
    rng = np.random.default_rng(derive_seed(cfg.root_seed, 0))
    X = np.empty((cfg.n, cfg.p))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((cfg.n, cfg.p - 1))
    truth = ModelTruth(beta_0=cfg.beta0, sigma2=cfg.sigma2)
    y = simulate_response(X, truth, derive_seed(cfg.root_seed, 1))
    return DataSet(X=X, y=y), truth


def _overlay(quantiles, pdf, points: int) -> tuple:
    """``points`` grid from a law's 0.001 to its 0.999 quantile, ``quantiles``,
    and the law's density ``pdf`` on it, both read-only."""
    x = np.linspace(*quantiles, points)
    y = pdf(x)
    x.flags.writeable = y.flags.writeable = False
    return x, y


def _references(cfg: SimConfig, full=None, gram_inv=None) -> tuple:
    """The run's reference laws, built once: none depends on the sketch kind.

    Returns ((crit, reference) of t_{k-p}, the complete marginal t's null; the
    same of t_{k-p+1}, the partial zero-null t's; exact), where crit is the
    law's quantile 1 - alpha/2 and a reference is (CDF, overlay).  Given the
    full fit and (X'X)^{-1}, ``exact`` holds each target's beta_s and beta_p
    references under repeated sketching; else it is empty.
    """
    nulls = []
    for df in (cfg.k - cfg.p, cfg.k - cfg.p + 1):
        law = student_t(df)
        crit, *q = (dist_quantile(law, a) for a in (1.0 - cfg.alpha / 2.0, 0.001, 0.999))
        nulls.append((crit, (functools.partial(dist_cdf, law),
                             _overlay(q, functools.partial(_t_pdf, df), cfg.overlay_points))))
    exact = []
    if full is not None:
        eq_t = complete_sketching_t_params(full, gram_inv, cfg.k, cfg.p)
        for j in cfg.targets:
            loc, sd = eq_t.location[j], np.sqrt(eq_t.scale_matrix[j, j])  # beta_s[j] ~ loc + sd t
            law = partial_sketching_law(np.eye(cfg.p)[j], full, gram_inv, cfg.k, cfg.p)
            exact.append((
                (functools.partial(mvt_marginal_cdf, eq_t, j),
                 _overlay([loc + sd * x for x in q],  # q: t_{k-p+1}'s, the last null's
                          lambda x: _t_pdf(eq_t.df, (x - loc) / sd) / sd, cfg.overlay_points)),
                (functools.partial(partial_sketching_cdf, law),
                 _overlay(partial_sketching_quantile(law, [0.001, 0.999]),
                          functools.partial(partial_sketching_pdf, law), cfg.overlay_points))))
    return (*nulls, exact)


def _table(name: str, kind: SketchKind, samples: np.ndarray, reference=None,
           **fields) -> ResultTable:
    """Histogrammed table of ``samples`` (one empty bin [0, 1] when there are
    none), with the overlay of and KS distance to ``reference`` (CDF, overlay)."""
    cdf, (x, pdf) = reference or (None, (None, None))
    t = ResultTable(name, kind.value, samples, overlay_x=x, overlay_pdf=pdf,
                    bin_edges=np.array([0.0, 1.0]), counts=np.array([0]), **fields)
    if cdf is not None and samples.size >= 2:
        t.ks_statistic, t.ks_p = ks_statistic(samples, cdf)
    if samples.size:
        t.counts, t.bin_edges = np.histogram(samples, np.histogram_bin_edges(samples, bins="fd"))
    return t


def _tables(cfg: SimConfig, kind: SketchKind, cols: np.ndarray, refs: tuple) -> list:
    """One kind's tables from its replicate columns ``cols`` (see _statistics)
    and the run's ``refs`` (see _references), in order: ssr_s and sigma2_hat
    when sampling, then per target j beta_s[j] and beta_p[j] when sketching,
    pivot_complete_null[j] and pivot_partial_zero[j].  The coverage of the
    level 1 - alpha interval that inverts the complete pivot, decided at the
    critical value of its rejections, goes on beta_s[j] when sketching, else
    on pivot_complete_null[j].
    """
    (tq_complete, complete), (tq_partial, partial), exact = refs
    sketching = cfg.regime is Regime.REPEATED_SKETCH
    out = [] if sketching else [_table("ssr_s", kind, cols[0]), _table("sigma2_hat", kind, cols[1])]
    for i, j in enumerate(cfg.targets):
        null_stat, se, beta_s, beta_p, part_all = cols[2 + 5 * i:7 + 5 * i]
        coverage = float(np.mean(np.abs(null_stat) <= tq_complete))
        if sketching:
            out += [_table(f"beta_s[{j}]", kind, beta_s, exact[i][0], coverage=coverage),
                    _table(f"beta_p[{j}]", kind, beta_p, exact[i][1])]
        part_stat = part_all[~np.isnan(part_all)]
        n_negden = part_all.size - part_stat.size
        out += [_table(f"pivot_complete_null[{j}]", kind, null_stat, complete,
                       rejection_rate=float(np.mean(np.abs(beta_s / se) > tq_complete)),
                       coverage=None if sketching else coverage),
                _table(f"pivot_partial_zero[{j}]", kind, part_stat, partial, n_error=n_negden,
                       negative_denominator_rate=n_negden / part_all.size,
                       rejection_rate=float(np.mean(np.abs(part_stat) > tq_partial))
                       if part_stat.size else None)]
    return out


def _partial_or_nan(pfit, sk, m_vec, regime: Regime) -> float:
    """The partial zero-null statistic, or NaN when its denominator is negative.
    A stack re-raises, so that its sketches are taken one by one."""
    try:
        return partial_t_statistic(pfit, sk, m_vec, regime)
    except NegativeDenominator:
        if sk.ys.ndim > 1:
            raise
        return np.nan


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where replicates cannot be forked.

    That is where fork or the affinity mask is unavailable, and inside a
    daemonic process, which multiprocessing does not let have children.
    """
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _worker(send, ranges: list, lo: int, hi: int) -> None:
    # Ctrl-C reaches the whole process group: the parent alone handles it,
    # and ends its workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for replicates in ranges:
        result = replicates(lo, hi)
        send.send(result)
        if result[1] is not None:
            break
    send.close()


def _columns(kind: SketchKind, result: tuple) -> np.ndarray:
    """The columns of one replicate range; its failure is raised as the run's error."""
    cols, failure = result
    if failure is not None:
        r, exc = failure
        raise type(exc)(f"{kind.value} replicate {r}: {exc}") from exc
    return cols


def _receive(kind: SketchKind, proc, recv, lo: int, hi: int) -> tuple:
    """A worker's next replicate range result, or WorkerFailed if it exited first."""
    try:
        return recv.recv()
    except EOFError:
        proc.join()
        raise WorkerFailed(f"{kind.value} replicates {lo}-{hi - 1}: worker exited with code "
                           f"{proc.exitcode} before sending its results") from None


def _run_replicates(kinds: tuple, m: int, workers: int, ranges: list) -> list:
    """Replicates 0..m-1 of each kind: one array per kind, the columns that
    ``ranges[i](lo, hi)`` gives for kind ``kinds[i]``, joined over the ranges.

    [0, m) is split into ``workers`` contiguous ranges, forked once per run.
    Range 0 runs here; every other range runs in a forked child, which sends
    its columns back over a pipe kind by kind.  The columns are joined in
    index order, so the arrays do not depend on ``workers``, and with one
    worker nothing is forked.  A SketchInferError ends the run where a loop
    over the kinds and then the replicates would stop: at the first failing
    kind's lowest failing replicate r, as the same error type with the
    message prefixed by the kind and r and the original error as its cause.
    A child that exits without sending raises WorkerFailed.  No child
    outlives the call.
    """
    bounds = [m * w // workers for w in range(workers + 1)]
    children = []
    try:
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            # a child flushes the standard streams when it exits: empty
            # them first, so that it cannot repeat what the parent wrote
            sys.stdout.flush()
            sys.stderr.flush()
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker, args=(send, ranges, lo, hi), daemon=True)
                proc.start()
                send.close()
                children.append((proc, recv, lo, hi))
        per_kind = []
        for kind, replicates in zip(kinds, ranges):
            # in index order, so the first failure raised is the lowest
            parts = [_columns(kind, replicates(*bounds[:2]))]
            for child in children:
                parts.append(_columns(kind, _receive(kind, *child)))
            per_kind.append(parts[0] if workers == 1 else np.concatenate(parts, axis=1))
        return per_kind
    finally:
        for proc, recv, _, _ in children:
            if proc.is_alive():
                proc.kill()
            proc.join()
            recv.close()


def _seeds(cfg: SimConfig, kind_idx: int, lo: int, hi: int) -> list:
    """The seeds of replicates lo..hi-1 of kind ``cfg.sketch_kinds[kind_idx]``,
    derived in one pass: item r - lo holds replicate r's d seeds.

    Seed t < d of replicate r is derive_seed(root, 10_000 + d (kind_idx m + r)
    + t), with d = 2 under repeated sampling, else 1; the last one seeds the
    sketch, and under repeated sampling seed 0 draws the response.
    """
    d = 2 if cfg.regime is Regime.REPEATED_SAMPLE else 1
    first = 10_000 + d * (kind_idx * cfg.m + lo)
    flat = derive_seeds(cfg.root_seed, first, first + d * (hi - lo))
    return [flat[i:i + d] for i in range(0, len(flat), d)]


def _sketch(cfg: SimConfig, data: DataSet, partial_in, mean, kind_idx: int, r: int,
            seeds=None, buffer=None) -> tuple:
    """Replicate r's sketch of kind ``cfg.sketch_kinds[kind_idx]`` and its partial inputs.

    ``seeds`` are the replicate's (see _seeds; derived here when None).
    Under repeated sampling (``mean`` given) seed 0 draws a fresh response
    about ``mean`` whose summaries replace ``partial_in``.  The dataset that
    holds it is made by ``buffer``, a _ResponseBuffer of ``data`` (a new
    one when None), and dropped here: neither returned value views it.
    """
    if seeds is None:
        seeds = _seeds(cfg, kind_idx, r, r + 1)[0]
    if mean is not None:
        buffer = buffer or _ResponseBuffer(data)
        data = buffer.with_response(draw_response(mean, cfg.sigma2, seeds[0]))
        partial_in = PartialInputs.of(data)
    sk = apply_sketch(data, SketchSpec(kind=cfg.sketch_kinds[kind_idx], k=cfg.k, seed=seeds[-1]))
    return sk, partial_in


def _statistics(cfg: SimConfig, hyp: np.ndarray, sk: SketchedData, partial_in) -> list:
    """SSR_s, sigma2_hat, then per target j the complete pivot at ``hyp[j]``, its
    se, beta_s[j], beta_p[j] and the partial zero-null statistic (NaN where its
    denominator is negative): of one sketch, or, per item, of a stack of them."""
    cfit = fit_complete(sk)
    pfit = fit_partial(sk, partial_in)
    values = [cfit.SSR_s, sigma2_hat_complete(cfit.SSR_s, cfg.n, cfg.k, cfg.p)]
    for j in cfg.targets:
        values += marginal_t_statistic(cfit, sk, j, hyp[j])
        values += (cfit.beta[..., j], pfit.beta[..., j],
                   _partial_or_nan(pfit, sk, np.eye(cfg.p)[j], cfg.regime))
    return values


def _replicate_range(cfg: SimConfig, data: DataSet, hyp: np.ndarray, partial_in, mean,
                     kind_idx: int, lo: int, hi: int) -> tuple:
    """Replicates lo..hi-1 of kind ``cfg.sketch_kinds[kind_idx]`` (see _sketch):
    a (2 + 5 targets, hi - lo) array whose column r - lo holds replicate r's
    _statistics, and the first failure as (r, SketchInferError), else None.

    The sketches are drawn one at a time in index order, and fitted and
    pivoted in stacks of up to _CHUNK.  Each stack's seeds are derived in one
    pass (_seeds), and under repeated sampling every fresh response is
    written into the range's one _ResponseBuffer.  A stack that raises is
    taken again one sketch at a time, which stops where a loop over the
    replicates and then their stages would, and gives NaN where a partial
    denominator is negative.  A sketch that fails at r first lets the
    sketches before it be fitted, so that an earlier replicate's failure is
    the one reported.
    """
    out = np.empty((2 + 5 * len(cfg.targets), hi - lo))
    # under repeated sampling, one copy of [y | X] takes every fresh response
    buffer = None if mean is None else _ResponseBuffer(data)
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        seeds = _seeds(cfg, kind_idx, start, stop)
        drawn, failure = [], None
        for r in range(start, stop):
            try:
                drawn.append(_sketch(cfg, data, partial_in, mean, kind_idx, r, seeds[r - start],
                                     buffer))
            except SketchInferError as exc:
                failure = (r, exc)
                break
        if drawn:
            sketches, inputs = zip(*drawn)
            try:
                out[:, start - lo:start - lo + len(drawn)] = _statistics(
                    cfg, hyp, SketchedData.stack(sketches), PartialInputs.stack(inputs))
            except SketchInferError:
                for r, (sk, one_in) in enumerate(drawn, start):
                    try:
                        out[:, r - lo] = _statistics(cfg, hyp, sk, one_in)
                    except SketchInferError as exc:
                        return out, (r, exc)
        if failure is not None:
            return out, failure
    return out, None


def _replicate(cfg: SimConfig, data: DataSet, hyp: np.ndarray, partial_in, mean,
               kind_idx: int, r: int) -> list:
    """Replicate r of kind ``cfg.sketch_kinds[kind_idx]``, the range of one (see
    _replicate_range): its column as a list, or its failure raised."""
    cols, failure = _replicate_range(cfg, data, hyp, partial_in, mean, kind_idx, r, r + 1)
    if failure is not None:
        raise failure[1]
    return cols[:, 0].tolist()


def _run(cfg: SimConfig, data: DataSet, hyp: np.ndarray, partial_in, mean) -> tuple:
    """cfg.m replicates of each kind on ``data``, with _replicate_range's ``hyp``,
    ``partial_in`` and ``mean``: one column array per kind (see
    _replicate_range) and the number of workers that ran them.  A failing
    replicate ends the run with its error type, the message prefixed by the
    kind and replicate.
    """
    workers = min(_usable_cpus(), cfg.m)
    ranges = [functools.partial(_replicate_range, cfg, data, hyp, partial_in, mean, kind_idx)
              for kind_idx in range(len(cfg.sketch_kinds))]
    return _run_replicates(cfg.sketch_kinds, cfg.m, workers, ranges), workers


def run_repeated_sketching(cfg: SimConfig) -> SimReport:
    """One dataset, cfg.m independent sketches per sketch kind.

    Per target coordinate j this collects the complete and partial estimates,
    the exact marginal pivot at the realized beta_F (its null law is
    t_{k-p}), the zero-null statistics of both estimators with their
    rejection indicators, and the marginal confidence-interval coverage of
    beta_F.  A failing replicate ends the run as _run describes.
    """
    if cfg.regime is not Regime.REPEATED_SKETCH:
        raise DomainError(f"config regime must be {Regime.REPEATED_SKETCH.value}")
    t_start = time.perf_counter()
    data, _ = _make_dataset(cfg)
    full = fit_full(data)
    refs = _references(cfg, full, np.linalg.inv(data.X.T @ data.X))
    per_kind, workers = _run(cfg, data, full.beta_F, PartialInputs.of(data), None)
    tables = [t for kind, cols in zip(cfg.sketch_kinds, per_kind)
              for t in _tables(cfg, kind, cols, refs)]
    return SimReport(config=cfg, tables=tables, beta_F=full.beta_F,
                     runtime_seconds=time.perf_counter() - t_start, workers=workers)


def run_repeated_sampling(cfg: SimConfig) -> SimReport:
    """Fixed covariates, fresh response and sketch per replicate.

    Collects the approximate marginal pivots for beta_0 at its true value
    (null law t_{k-p}) and the partial zero-null statistics (t_{k-p+1} when
    the true coordinate is zero), confidence-interval coverage of beta_0,
    plus the sketched residual sum of squares and the derived variance
    estimate for moment checks.  A failing replicate ends the run as _run
    describes.
    """
    if cfg.regime is not Regime.REPEATED_SAMPLE:
        raise DomainError(f"config regime must be {Regime.REPEATED_SAMPLE.value}")
    t_start = time.perf_counter()
    data, truth = _make_dataset(cfg)
    refs = _references(cfg)
    per_kind, workers = _run(cfg, data, truth.beta_0, None, response_mean(data.X, truth))
    tables = [t for kind, cols in zip(cfg.sketch_kinds, per_kind)
              for t in _tables(cfg, kind, cols, refs)]
    return SimReport(config=cfg, tables=tables, beta_F=None,
                     runtime_seconds=time.perf_counter() - t_start, workers=workers)
