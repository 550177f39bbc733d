"""The benchmark's workloads: generated inputs, the public calls made on
them, and the checks each call's output must pass.

A workload is a sequence of cycles; a cycle is a list of calls, each one
call into a public entry point of the package (a harness call, one
``cli.main`` invocation, one 512-point density grid).  Inputs depend only on
the workload seed.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

import sketch_infer as si
from sketch_infer import cli, densities, sim_study
from sketch_infer.inference import Regime
from sketch_infer.sketch_ops import SketchKind

HERE = Path(__file__).resolve().parent
LAWS_REFERENCE = HERE / "laws_reference.json"

# replicates per sketch kind in one harness call at the paper design
SIM_M = 200
# KS bound D < KS_CRIT / sqrt(m): P(sqrt(m) D > 2.7) ~ 1e-6 under the exact law
KS_CRIT = 2.7
CLI_ROWS, CLI_COVARIATES, CLI_K = 20_000, 10, 50
CLI_MODES = ("complete", "partial", "efficient")
# CLI estimates against the in-process fit of the same arrays and seed
CLI_REL_TOL = 1e-9
GRID_POINTS = 512
LAW_DESIGNS = ((10_000, 21), (2_000, 50), (200, 21))
LAW_P = 11
# density values against laws_reference.json (recorded at the commit that
# added the benchmark); loose enough for a quadrature or series swap
LAW_REL_TOL = 1e-6


@dataclass
class Call:
    """One public call: ``run()`` returns its output, ``check(output)`` the
    number of failed attempts and messages, ``fingerprint(output)`` a digest
    used to show that tracing leaves outputs unchanged."""

    run: Callable
    ops: int
    attempts: int
    check: Callable
    fingerprint: Callable


def _subseed(*words) -> int:
    return int(np.random.SeedSequence([int(w) % 2**64 for w in words]).generate_state(1)[0])


def ks_distance(samples, cdf) -> float:
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    c = np.asarray(cdf(x), dtype=float)
    return max(float(np.max(np.arange(1, m + 1) / m - c)),
               float(np.max(c - np.arange(m) / m)))


# ---------------------------------------------------------------------------
# Monte-Carlo harness: sim-sketching, sim-sampling
# ---------------------------------------------------------------------------

class SimWorkload:
    def __init__(self, regime: Regime, seed: int, workdir: Path, tiny: bool):
        self.regime = regime
        self.probe_kind = "sketching" if regime is Regime.REPEATED_SKETCH else "sampling"
        self.seed = seed
        self.m = 8 if tiny else SIM_M
        self.runner = (
            "run_repeated_sketching" if regime is Regime.REPEATED_SKETCH
            else "run_repeated_sampling"
        )
        self.root = f"sim_study.{self.runner}"

    def warmup(self) -> None:
        # the paper design at m = 2: every code path and array size of a call
        cfg = sim_study.paper_config(self.regime, m=2, root_seed=_subseed(self.seed, 2**40))
        getattr(sim_study, self.runner)(cfg)

    def setup_code(self) -> str:
        return (
            "import numpy as np\n"
            "import sketch_infer as si\n"
            "from sketch_infer import sim_study\n"
            f"cfg = si.SimConfig(n=200, p=11, k=21, m=2, beta0=np.arange(-5.0, 6.0),"
            f" sigma2=1.0, sketch_kinds=tuple(si.SketchKind), regime={self.regime.value!r},"
            " targets=(0, 5), root_seed=1, rep_draws=1000, overlay_points=8)\n"
            f"sim_study.{self.runner}(cfg)\n"
        )

    def cycle(self, i: int) -> list:
        # one harness call per sketch kind, in a seed-shuffled order, all on
        # the cycle's root seed (so one dataset in the sketching regime):
        # ~1.5 s calls let the host probe sample between them three times
        # as often as one call over all kinds would
        root_seed = _subseed(self.seed, i)
        kinds = list(SketchKind)
        calls = []
        for c in np.random.default_rng(root_seed).permutation(len(kinds)):
            cfg = sim_study.paper_config(self.regime, sketch_kinds=(kinds[c],), m=self.m,
                                         root_seed=root_seed)
            calls.append(Call(
                run=lambda cfg=cfg: getattr(sim_study, self.runner)(cfg),
                ops=cfg.m,
                attempts=1,
                check=lambda rep, cfg=cfg: self.check(cfg, rep),
                fingerprint=_report_digest,
            ))
        return calls

    def check(self, cfg, rep) -> tuple:
        problems = []
        m = cfg.m
        for t in rep.tables:
            if t.samples.size + t.n_error != m:
                problems.append(f"{t.sketch}/{t.name}: {t.samples.size} samples + "
                                f"{t.n_error} negative denominators != m={m}")
            if t.n_error and not t.name.startswith("pivot_partial_zero"):
                problems.append(f"{t.sketch}/{t.name}: {t.n_error} errors outside the partial pivot")
            if not np.all(np.isfinite(t.samples)):
                problems.append(f"{t.sketch}/{t.name}: non-finite samples")
        bound = KS_CRIT / math.sqrt(m)
        g = SketchKind.GAUSSIAN
        k, p = cfg.k, cfg.p
        if g not in cfg.sketch_kinds:
            return (1 if problems else 0), problems
        try:
            if cfg.regime is Regime.REPEATED_SKETCH:
                # exact for a Gaussian sketch: beta_s ~ multivariate t (KS from the
                # report, against the package's law) and the marginal pivot at
                # beta_F ~ t_{k-p} (recomputed here with scipy)
                for j in cfg.targets:
                    d = rep.table(f"beta_s[{j}]", g).ks_statistic
                    if not d < bound:
                        problems.append(f"gaussian beta_s[{j}] KS {d} >= {bound:.4f}")
                    s = rep.table(f"pivot_complete_null[{j}]", g).samples
                    d = ks_distance(s, lambda x: stats.t.cdf(x, k - p))
                    if not d < bound:
                        problems.append(f"gaussian pivot_complete_null[{j}] KS {d:.4f} >= {bound:.4f}")
            else:
                # exact for a Gaussian sketch: k SSR_s / sigma^2 = chi2_{n-p} * chi2_{k-p},
                # the two factors independent
                s = rep.table("ssr_s", g).samples * k / cfg.sigma2
                v = stats.chi2.ppf((np.arange(512) + 0.5) / 512, cfg.n - p)
                d = ks_distance(s, lambda u: np.array(
                    [stats.chi2.cdf(ui / v, k - p).mean() for ui in u]))
                if not d < bound:
                    problems.append(f"gaussian ssr_s KS {d:.4f} >= {bound:.4f}")
        except KeyError as exc:
            problems.append(f"missing table: {exc}")
        return (1 if problems else 0), problems


def _report_digest(rep) -> str:
    doc = rep.to_jsonable()
    doc.pop("runtime_seconds", None)
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for t in rep.tables:
        h.update(np.ascontiguousarray(t.samples, dtype=float).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# CLI on a generated CSV: cli-csv
# ---------------------------------------------------------------------------

def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["y"])
    # %.17g round-trips every float64 exactly
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header=header, comments="")


class CliWorkload:
    root = "cli.main"
    probe_kind = "ingest"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(_subseed(seed))
        n = 2_000 if tiny else CLI_ROWS
        X = rng.standard_normal((n, CLI_COVARIATES))
        beta = rng.uniform(-2.0, 2.0, CLI_COVARIATES)
        y = 1.0 + X @ beta + rng.standard_normal(n)
        self.csv = workdir / "cli-input.csv"
        write_csv(self.csv, X, y)
        write_csv(workdir / "cli-warmup.csv", X[:100], y[:100])
        Xi = np.column_stack([np.ones(n), X])
        self.data = si.DataSet(X=Xi, y=y)
        self.partial_in = si.PartialInputs(Xty=Xi.T @ y, yty=float(y @ y))
        self.combos = [(cmd, kind.value, mode) for cmd in ("fit", "infer")
                       for kind in SketchKind for mode in CLI_MODES]
        self.order = rng.permutation(len(self.combos))

    def _argv(self, cmd, kind, mode, seed, csv_path, out) -> list:
        return [cmd, "--input", str(csv_path), "--response", "y", "--intercept",
                "--sketch", kind, "--k", str(CLI_K), "--mode", mode,
                "--seed", str(seed), "--output", str(out)]

    def warmup(self) -> None:
        for mode in CLI_MODES:
            _main(self._argv("infer", "gaussian", mode, 1, self.workdir / "cli-warmup.csv",
                             self.workdir / "cli-warmup.json"))

    def setup_code(self) -> str:
        argv = self._argv("infer", "gaussian", "complete", 1, self.workdir / "cli-warmup.csv",
                          self.workdir / "cli-setup.json")
        return (
            "from sketch_infer import cli\n"
            f"rc = cli.main({argv!r})\n"
            "assert rc == 0, rc\n"
        )

    def cycle(self, i: int) -> list:
        calls = []
        for c in self.order:
            cmd, kind, mode = self.combos[c]
            seed = _subseed(self.seed, i, c) % (2**31)
            out = self.workdir / f"cli-{cmd}-{kind}-{mode}.json"
            argv = self._argv(cmd, kind, mode, seed, self.csv, out)
            calls.append(Call(
                run=lambda argv=argv: _main(argv),
                ops=1,
                attempts=1,
                check=lambda rc, a=(cmd, kind, mode, seed, out): self.check(rc, *a),
                fingerprint=lambda rc, out=out: f"{rc}:" + hashlib.sha256(out.read_bytes()).hexdigest(),
            ))
        return calls

    def check(self, rc, cmd, kind, mode, seed, out) -> tuple:
        if rc != 0:
            return 1, [f"{cmd} {kind} {mode}: exit code {rc}"]
        try:
            rep = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            return 1, [f"{cmd} {kind} {mode}: unreadable report: {exc}"]
        problems = [f"{cmd} {kind} {mode}: non-finite value at {path}"
                    for path in _nonfinite(rep)]
        sk = si.apply_sketch(self.data, si.SketchSpec(kind=SketchKind(kind), k=CLI_K, seed=seed),
                             want_w_star=(mode == "efficient"))
        if mode == "complete":
            fit = si.fit_complete(sk)
        elif mode == "partial":
            fit = si.fit_partial(sk, self.partial_in)
        else:
            fit = si.fit_efficient_star(sk)
        rows = rep["estimates"] if cmd == "fit" else rep["coefficients"]
        got = np.array([r["estimate"] for r in rows], dtype=float)
        if got.shape != fit.beta.shape or not np.all(
                np.abs(got - fit.beta) <= CLI_REL_TOL * max(1.0, float(np.max(np.abs(fit.beta))))):
            problems.append(f"{cmd} {kind} {mode}: estimates differ from the in-process fit")
        return (1 if problems else 0), problems


def _main(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def _nonfinite(obj, path="$"):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            yield path
    elif isinstance(obj, dict):
        for key, val in obj.items():
            yield from _nonfinite(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for idx, val in enumerate(obj):
            yield from _nonfinite(val, f"{path}[{idx}]")


# ---------------------------------------------------------------------------
# density grids: laws-grid
# ---------------------------------------------------------------------------

@dataclass
class Grid:
    key: str
    law: str
    points: list
    extra: tuple


def law_grids() -> list:
    """The 12 grids (4 laws x 3 designs) of GRID_POINTS points each.

    The points are fixed, so the values can be checked against recorded
    references; the workload seed only sets the evaluation order.
    """
    p = LAW_P
    beta0 = np.arange(-5.0, 6.0)
    truth = si.ModelTruth(beta_0=beta0, sigma2=1.0)
    corr = 0.5 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    t = np.linspace(-4.0, 4.0, GRID_POINTS)
    e0 = np.eye(p)[0]
    grids = []
    for n, k in LAW_DESIGNS:
        gram = n * corr
        ginv00 = float(np.linalg.inv(gram)[0, 0])
        b0Gb0 = float(beta0 @ gram @ beta0)
        # lines through beta_0 along coordinate 0, in units of each
        # estimator's approximate marginal scale over repeated samples
        s_complete = math.sqrt((n - p) / (k - p + 1) * ginv00)
        s_partial = math.sqrt((b0Gb0 + n) / k * ginv00)
        params = densities.ssr_s_law_params(n, k, p)
        lo = (n - p) * stats.chi2.ppf(0.001, k - p) * (1 - 3 * math.sqrt(2 / (n - p)))
        hi = (n - p) * stats.chi2.ppf(0.999, k - p) * (1 + 3 * math.sqrt(2 / (n - p)))
        scale = p / ((k - p) * (n - p))
        r_lo, r_hi = (scale * stats.f.ppf(q, p, k - p) for q in (0.001, 0.999))
        tag = f"n={n},k={k}"
        grids += [
            Grid(f"complete_sampling_pdf/{tag}", "complete_sampling_pdf",
                 [beta0 + ti * s_complete * e0 for ti in t], (truth, gram, n, k, p)),
            Grid(f"partial_approx_pdf/{tag}", "partial_approx_pdf",
                 [beta0 + ti * s_partial * e0 for ti in t], (truth, gram, k, p)),
            Grid(f"ssr_s_law_pdf/{tag}", "ssr_s_law_pdf",
                 [float(u) for u in np.linspace(lo, hi, GRID_POINTS)], (n, k, p)),
            Grid(f"ratio_law_pdf/{tag}", "ratio_law_pdf",
                 [float(r) for r in np.geomspace(r_lo, r_hi, GRID_POINTS)], (p / 2.0, params)),
        ]
    return grids


def evaluate_grid(grid: Grid, order) -> np.ndarray:
    fn = getattr(densities, grid.law)
    out = np.empty(len(grid.points))
    for i in order:
        out[i] = fn(grid.points[i], *grid.extra)
    return out


class LawsWorkload:
    root = "bench.grid"
    probe_kind = "scalar"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        stride = 16 if tiny else 1
        self.grids = law_grids()
        reference = json.loads(LAWS_REFERENCE.read_text())["values"]
        self.reference = {}
        for g in self.grids:
            g.points = g.points[::stride]
            self.reference[g.key] = np.array(reference[g.key][::stride], dtype=float)

    def warmup(self) -> None:
        for g in self.grids:
            evaluate_grid(g, [0])

    def setup_code(self) -> str:
        return (
            "import numpy as np\n"
            "import sketch_infer as si\n"
            "from sketch_infer import densities\n"
            "truth = si.ModelTruth(beta_0=np.arange(-5.0, 6.0), sigma2=1.0)\n"
            "gram = 2000.0 * np.eye(11)\n"
            "densities.complete_sampling_pdf(truth.beta_0, truth, gram, 2000, 50, 11)\n"
            "densities.partial_approx_pdf(truth.beta_0, truth, gram, 50, 11)\n"
            "params = densities.ssr_s_law_params(2000, 50, 11)\n"
            "densities.ssr_s_law_pdf(39.0 * 1989.0, 2000, 50, 11)\n"
            "densities.ratio_law_pdf(1e-4, 5.5, params)\n"
        )

    def cycle(self, i: int) -> list:
        rng = np.random.default_rng(_subseed(self.seed, i))
        calls = []
        for gi in rng.permutation(len(self.grids)):
            g = self.grids[gi]
            order = rng.permutation(len(g.points))
            calls.append(Call(
                run=lambda g=g, order=order: evaluate_grid(g, order),
                ops=len(g.points),
                attempts=len(g.points),
                check=lambda vals, g=g: self.check(g, vals),
                fingerprint=lambda vals: hashlib.sha256(vals.tobytes()).hexdigest(),
            ))
        return calls

    def check(self, g: Grid, vals) -> tuple:
        ref = self.reference[g.key]
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        bad |= ~(np.abs(vals - ref) <= LAW_REL_TOL * np.abs(ref))
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            i = int(np.argmax(bad))
            return n_bad, [f"{g.key}: {n_bad} values fail (first at point {i}: "
                           f"{vals[i]!r} vs reference {ref[i]!r})"]
        return 0, []


def make(name: str, seed: int, workdir: Path, tiny: bool):
    if name == "sim-sketching":
        return SimWorkload(Regime.REPEATED_SKETCH, seed, workdir, tiny)
    if name == "sim-sampling":
        return SimWorkload(Regime.REPEATED_SAMPLE, seed, workdir, tiny)
    if name == "cli-csv":
        return CliWorkload(seed, workdir, tiny)
    if name == "laws-grid":
        return LawsWorkload(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sim-sketching", "sim-sampling", "cli-csv", "laws-grid")
