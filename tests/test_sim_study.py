"""Simulation harness: determinism, bookkeeping, emission formats."""

import contextlib
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import signal
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from sketch_infer import core_model, estimators, sim_study
from sketch_infer.core_model import draw_response, fit_full, response_mean
from sketch_infer.densities import (
    complete_sketching_t_params,
    partial_sketching_cdf,
    partial_sketching_law,
    partial_sketching_pdf,
    partial_sketching_quantile,
)
from sketch_infer.errors import (
    DegenerateSSR,
    DomainError,
    EmptyInput,
    NegativeDenominator,
    NonFinite,
    RankDeficient,
    WorkerFailed,
)
from sketch_infer.estimators import PartialInputs, fit_complete, fit_partial
from sketch_infer.inference import (
    Regime,
    complete_marginal_t_tests,
    partial_linear_combination_test,
)
from sketch_infer.sim_study import (
    SimConfig,
    json_text,
    ks_statistic,
    paper_config,
    run_repeated_sampling,
    run_repeated_sketching,
)
from sketch_infer.sketch_ops import SketchKind, SketchSpec, apply_sketch, derive_seed
from sketch_infer.special_fn import dist_quantile, student_t


def _small_cfg(regime, m=60, seed=77, kinds=(SketchKind.GAUSSIAN,)):
    return SimConfig(
        n=250, p=4, k=12, m=m, beta0=np.array([2.0, -1.0, 0.0, 1.0]), sigma2=1.0,
        sketch_kinds=kinds, regime=regime, targets=(0, 2), root_seed=seed,
        rep_draws=20_000,
    )


class TestKsStatistic:
    def test_null_draws_small_statistic(self):
        rng = np.random.default_rng(4)
        d, p = ks_statistic(rng.standard_normal(10_000), lambda x: stats.norm.cdf(x))
        assert d < 0.02
        assert 0.0 <= p <= 1.0

    def test_point_mass_at_median(self):
        d, _ = ks_statistic(np.zeros(1000), lambda x: stats.norm.cdf(x))
        assert d == pytest.approx(0.5, abs=1e-3)

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)
        d1, p1 = ks_statistic(x, lambda v: stats.norm.cdf(v))
        rng.shuffle(x)
        d2, p2 = ks_statistic(x, lambda v: stats.norm.cdf(v))
        assert d1 == d2 and p1 == p2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ks_statistic(np.array([]), lambda x: x)

    @pytest.mark.parametrize("m", [1, 2, 3, 200, 575, 576, 10_000, 100_003])
    @pytest.mark.parametrize("law", ["t", "norm"])
    def test_equals_scipy_kstest_bit_for_bit(self, m, law):
        # from m = 576 on (stride 4) the CDF is evaluated in blocks
        # the statistic and the asymptotic p-value scipy.stats computes, not near them
        cdf = {"t": lambda x: stats.t.cdf(x, 10), "norm": stats.norm.cdf}[law]
        rng = np.random.default_rng(m)
        # null draws, shifted draws, and ties
        for x in (rng.standard_t(10, m), rng.standard_normal(m) + 0.3,
                  np.round(rng.standard_normal(m), 1)):
            res = stats.kstest(x, cdf, method="asymp")
            assert ks_statistic(x, cdf) == (float(res.statistic), float(res.pvalue))


    def test_blocks_evaluate_a_fraction_of_the_points(self):
        seen = []

        def cdf(v):
            seen.append(v.size)
            return stats.norm.cdf(v)

        x = np.random.default_rng(6).standard_normal(10_000)
        assert ks_statistic(x, cdf)[0] == float(stats.kstest(x, stats.norm.cdf).statistic)
        assert len(seen) == 2 and sum(seen) < 2_500


class TestTOverlay:
    """The t overlays' density is scipy.stats' t density, bit for bit."""

    @staticmethod
    def _check(df, loc=0.0, scale=1.0):
        q = [loc + scale * dist_quantile(student_t(df), a) for a in (0.001, 0.999)]
        x, pdf = sim_study._overlay(q, lambda v: sim_study._t_pdf(df, (v - loc) / scale) / scale,
                                    512)
        np.testing.assert_array_equal(pdf, stats.t.pdf(x, df, loc=loc, scale=scale))
        assert not (x.flags.writeable or pdf.flags.writeable)

    @pytest.mark.parametrize("df", [10, 11, 1, 3, 1000, 10**6])
    def test_pivot_laws(self, df):
        # t_{k-p} and t_{k-p+1} at the paper design (k - p = 10), and extreme df
        self._check(df)

    def test_beta_s_law_at_paper_design(self):
        cfg = paper_config(Regime.REPEATED_SKETCH, m=1)
        data, _ = sim_study._make_dataset(cfg)
        eq_t = complete_sketching_t_params(fit_full(data), np.linalg.inv(data.X.T @ data.X),
                                           cfg.k, cfg.p)
        for j in range(cfg.p):
            self._check(eq_t.df, eq_t.location[j], np.sqrt(eq_t.scale_matrix[j, j]))


class TestConfig:
    def test_numpy_integer_counts_accepted(self):
        cfg = dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), m=np.int64(3),
                                  targets=(np.int32(0), np.int64(2)))
        assert cfg.m == 3 and cfg.targets == (0, 2)
        assert all(type(t) is int for t in cfg.targets)

    def test_partial_path_needs_wide_sketch(self):
        with pytest.raises(DomainError):
            SimConfig(n=100, p=4, k=7, m=10, beta0=np.zeros(4), sigma2=1.0,
                      sketch_kinds=(SketchKind.GAUSSIAN,), regime=Regime.REPEATED_SKETCH,
                      targets=(0,), root_seed=1)

    def test_target_bounds(self):
        with pytest.raises(DomainError):
            SimConfig(n=100, p=4, k=12, m=10, beta0=np.zeros(4), sigma2=1.0,
                      sketch_kinds=(SketchKind.GAUSSIAN,), regime=Regime.REPEATED_SKETCH,
                      targets=(4,), root_seed=1)

    def test_accepts_string_tags(self):
        cfg = SimConfig(n=100, p=4, k=12, m=10, beta0=np.zeros(4), sigma2=1.0,
                        sketch_kinds=("gaussian", "hadamard"), regime="repeated_sketch",
                        targets=(0,), root_seed=1)
        assert cfg.sketch_kinds == (SketchKind.GAUSSIAN, SketchKind.HADAMARD)
        assert cfg.regime is Regime.REPEATED_SKETCH

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 5.0, math.nan])
    def test_alpha_inside_unit_interval(self, alpha):
        with pytest.raises(DomainError, match=r"alpha must be in \(0, 1\)"):
            dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), alpha=alpha)

    # each raised a bare TypeError or ValueError, or (a bare string of
    # sketch names, iterated letter by letter) named no field
    @pytest.mark.parametrize("field,value", [
        ("alpha", "0.05"), ("alpha", None), ("targets", 0), ("sketch_kinds", 3),
        ("sketch_kinds", "gaussian"), ("regime", "sketching"),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} "):
            dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("sketch_kinds", []), ("targets", []), ("sketch_kinds", ["gaussian", "gaussian"]),
        ("sketch_kinds", ["hadamard", SketchKind.HADAMARD]), ("targets", [2, 0, 2]),
        ("targets", (np.int64(0), 0)),
    ])
    def test_empty_or_repeated_list_names_its_field(self, field, value):
        # an empty list ran and reported nothing; a repeated one wrote each
        # later table's CSV over the earlier one's
        with pytest.raises(DomainError, match=f"^{field} must be a nonempty list of distinct "):
            dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), **{field: value})

    def test_p_at_least_one(self):
        # p = 0 passed every check and failed building the dataset's intercept
        with pytest.raises(DomainError, match="^p must be >= 1, got 0$"):
            dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), p=0, beta0=[], targets=[0])

    def test_generators_are_read_once(self):
        # each was checked by one pass and then read empty by the next
        cfg = dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), targets=iter([0, 2]),
                                  sketch_kinds=(s for s in ("hadamard",)))
        assert cfg.targets == (0, 2) and cfg.sketch_kinds == (SketchKind.HADAMARD,)
        with pytest.raises(DomainError, match=r"^targets 9 outside \[0, 4\)$"):
            dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), targets=iter([0, 9]))

    @pytest.mark.parametrize("alpha,sigma2", [(Fraction(1, 20), Fraction(3, 2)), (0.05, 1)],
                             ids=["fractions", "integer_sigma2"])
    def test_alpha_and_sigma2_stored_as_floats(self, alpha, sigma2):
        # a Fraction passed every check, and the finished run's report then
        # raised a bare TypeError in write_json
        cfg = dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH), alpha=alpha, sigma2=sigma2)
        assert (type(cfg.alpha), type(cfg.sigma2)) == (float, float)
        assert (cfg.alpha, cfg.sigma2) == (float(alpha), float(sigma2))
        doc = sim_study.SimReport(config=cfg, tables=[], beta_F=None, runtime_seconds=0.0)
        assert '"sigma2": ' + repr(float(sigma2)) in json_text(doc.to_jsonable())

    @pytest.mark.parametrize("regime", list(Regime), ids=["sketching", "sampling"])
    def test_coverage_at_one_minus_alpha(self, regime):
        # the complete pivot's interval coverage uses the rejection rate's
        # critical value t_{k-p}(1 - alpha/2); the report has no other level
        run = run_repeated_sketching if regime is Regime.REPEATED_SKETCH else run_repeated_sampling
        rep = run(dataclasses.replace(_small_cfg(regime, m=40), alpha=0.3))
        assert "ci_level" not in rep.to_jsonable()["config"]
        tq = dist_quantile(student_t(12 - 4), 1.0 - 0.3 / 2.0)
        for j in (0, 2):
            pivot = rep.table(f"pivot_complete_null[{j}]", "gaussian").samples
            name = f"beta_s[{j}]" if regime is Regime.REPEATED_SKETCH else f"pivot_complete_null[{j}]"
            assert rep.table(name, "gaussian").coverage == float(np.mean(np.abs(pivot) <= tq))


class TestRepeatedSketching:
    def test_bit_identical_reports(self):
        a = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH))
        b = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH))
        assert len(a.tables) == len(b.tables)
        for ta, tb in zip(a.tables, b.tables):
            assert ta.name == tb.name and ta.sketch == tb.sketch
            assert np.array_equal(ta.samples, tb.samples)
            assert ta.ks_statistic == tb.ks_statistic

    def test_replicate_accounting(self):
        rep = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH, m=80))
        for t in rep.tables:
            assert t.samples.size + t.n_error == 80
            assert int(t.counts.sum()) == t.samples.size

    def test_single_replicate_has_no_ks(self):
        rep = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH, m=1))
        assert all(t.ks_statistic is None for t in rep.tables)
        assert all(t.samples.size + t.n_error == 1 for t in rep.tables)

    def test_wrong_regime_rejected(self):
        with pytest.raises(DomainError):
            run_repeated_sketching(_small_cfg(Regime.REPEATED_SAMPLE))

    def test_table_lookup_and_fields(self):
        rep = run_repeated_sketching(
            _small_cfg(Regime.REPEATED_SKETCH, kinds=(SketchKind.GAUSSIAN, SketchKind.CLARKSON_WOODRUFF)))
        t = rep.table("beta_s[0]", SketchKind.GAUSSIAN)
        assert t.coverage is not None
        assert t.overlay_x is not None and len(t.overlay_x) == 512
        piv = rep.table("pivot_complete_null[2]", "clarkson_woodruff")
        assert piv.rejection_rate is not None
        with pytest.raises(KeyError):
            rep.table("beta_s[0]", "hadamard")


def _partial_law(cfg, j):
    """The exact beta_p[j] reference law of the harness."""
    data, _ = sim_study._make_dataset(cfg)
    return partial_sketching_law(np.eye(cfg.p)[j], fit_full(data),
                                 np.linalg.inv(data.X.T @ data.X), cfg.k, cfg.p)


def _partial_overlay(law, points):
    """The beta_p overlay: the one overlay rule on the exact law."""
    return sim_study._overlay(partial_sketching_quantile(law, [0.001, 0.999]),
                              lambda v: partial_sketching_pdf(law, v), points)


def _plain_table(t):
    return json.dumps(t.to_jsonable(), sort_keys=True), t.samples.tobytes()


class TestPartialOverlay:
    """The beta_p overlay: the exact law's density between its 0.001 and 0.999 quantiles."""

    def test_paper_design_reference(self):
        law = _partial_law(paper_config(Regime.REPEATED_SKETCH, m=1), 5)
        x, pdf = _partial_overlay(law, 512)
        assert x.size == 512 and not (x.flags.writeable or pdf.flags.writeable)
        np.testing.assert_allclose(partial_sketching_cdf(law, x[[0, -1]]), [0.001, 0.999],
                                   rtol=0, atol=1e-13)
        np.testing.assert_array_equal(x, np.linspace(x[0], x[-1], 512))
        np.testing.assert_array_equal(pdf, partial_sketching_pdf(law, x))

    def test_thousand_draws(self):
        # the benchmark's set-up probe config: rep_draws is accepted and read
        # by nothing, and the overlays have overlay_points = 8 points
        cfg = SimConfig(n=200, p=11, k=21, m=2, beta0=np.arange(-5.0, 6.0), sigma2=1.0,
                        sketch_kinds=tuple(SketchKind), regime=Regime.REPEATED_SKETCH,
                        targets=(0, 5), root_seed=1, rep_draws=1000, overlay_points=8)
        rep = run_repeated_sketching(cfg)
        assert all(t.overlay_x.size == 8 for t in rep.tables)
        for rep_draws in (0, 100_000):
            other = run_repeated_sketching(dataclasses.replace(cfg, rep_draws=rep_draws))
            for t, u in zip(rep.tables, other.tables):
                assert _plain_table(t) == _plain_table(u)

    def test_no_overlay_points(self):
        cfg = dataclasses.replace(_small_cfg(Regime.REPEATED_SKETCH, m=10), overlay_points=0)
        rep = run_repeated_sketching(cfg)
        for j in cfg.targets:
            t = rep.table(f"beta_p[{j}]", SketchKind.GAUSSIAN)
            assert t.overlay_x.size == t.overlay_pdf.size == 0
            assert t.ks_statistic is not None

    def test_once_per_target_shared_by_kinds(self, monkeypatch):
        calls = []
        real = sim_study.partial_sketching_law

        def counting(m_vec, *args):
            calls.append(int(np.argmax(m_vec)))
            return real(m_vec, *args)

        monkeypatch.setattr(sim_study, "partial_sketching_law", counting)
        cfg = _small_cfg(Regime.REPEATED_SKETCH, m=10, kinds=tuple(SketchKind))
        rep = run_repeated_sketching(cfg)
        assert calls == list(cfg.targets)
        for j in cfg.targets:
            law = _partial_law(cfg, j)
            x, pdf = _partial_overlay(law, cfg.overlay_points)
            for kind in cfg.sketch_kinds:
                t = rep.table(f"beta_p[{j}]", kind)
                np.testing.assert_array_equal(t.overlay_x, x)
                np.testing.assert_array_equal(t.overlay_pdf, pdf)
                # the KS test is against the exact law, not reference draws
                assert (t.ks_statistic, t.ks_p) == ks_statistic(
                    t.samples, lambda v: partial_sketching_cdf(law, v))


class TestReferencesOncePerRun:
    """Every table's reference and both t critical values are built once per
    run: the counts do not grow with the number of sketch kinds."""

    @pytest.mark.parametrize("kinds", [(SketchKind.GAUSSIAN,), tuple(SketchKind)],
                             ids=["one_kind", "three_kinds"])
    @pytest.mark.parametrize("regime,overlays", [(Regime.REPEATED_SKETCH, 2 + 2),
                                                 (Regime.REPEATED_SAMPLE, 2)],
                             ids=["sketching", "sampling"])
    def test_counts(self, monkeypatch, regime, overlays, kinds):
        # t densities: the two pivot nulls' overlays, and under repeated
        # sketching each target's beta_s overlay (targets 0 and 2); t
        # quantiles: each null's critical value, 0.001 and 0.999 quantiles
        calls = {"_t_pdf": 0, "dist_quantile": 0}

        def counting(name):
            real = getattr(sim_study, name)

            def fn(*args):
                calls[name] += 1
                return real(*args)
            return fn

        for name in calls:
            monkeypatch.setattr(sim_study, name, counting(name))
        run = run_repeated_sketching if regime is Regime.REPEATED_SKETCH else run_repeated_sampling
        run(_small_cfg(regime, m=10, kinds=kinds))
        assert calls == {"_t_pdf": overlays, "dist_quantile": 6}


class TestRepeatedSampling:
    def test_bit_identical_reports(self):
        a = run_repeated_sampling(_small_cfg(Regime.REPEATED_SAMPLE))
        b = run_repeated_sampling(_small_cfg(Regime.REPEATED_SAMPLE))
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta.samples, tb.samples)

    def test_collects_error_variance_series(self):
        rep = run_repeated_sampling(_small_cfg(Regime.REPEATED_SAMPLE, m=200))
        s2 = rep.table("sigma2_hat", SketchKind.GAUSSIAN)
        assert s2.samples.size == 200
        se = s2.samples.std() / math.sqrt(200)
        assert abs(s2.samples.mean() - 1.0) < 4 * se


class TestFailingReplicate:
    @pytest.mark.parametrize("regime,run", [
        (Regime.REPEATED_SKETCH, run_repeated_sketching),
        (Regime.REPEATED_SAMPLE, run_repeated_sampling),
    ], ids=["sketching", "sampling"])
    def test_error_names_kind_and_replicate(self, regime, run):
        # noiseless response: every replicate's SSR_s is roundoff
        cfg = dataclasses.replace(
            _small_cfg(regime, m=5, kinds=(SketchKind.HADAMARD, SketchKind.GAUSSIAN)),
            sigma2=0.0)
        with pytest.raises(DegenerateSSR, match=r"^hadamard replicate 0: ") as info:
            run(cfg)
        assert isinstance(info.value.__cause__, DegenerateSSR)
        assert str(info.value) == f"hadamard replicate 0: {info.value.__cause__}"


class TestEmission:
    def test_json_and_csv_outputs(self, tmp_path):
        rep = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH, m=40))
        jpath = tmp_path / "report.json"
        rep.write_json(jpath)
        loaded = json.loads(jpath.read_text())
        assert loaded["schema"] == "sketch-infer/1"
        assert loaded["config"]["m"] == 40
        assert len(loaded["tables"]) == len(rep.tables)
        for t in loaded["tables"]:
            if t["counts"] is not None:
                assert sum(t["counts"]) == t["count"]
        paths = rep.write_csvs(tmp_path / "csv")
        assert len(paths) == len(rep.tables)
        with open(paths[0]) as fh:
            header = fh.readline().strip()
        assert header == "bin_left,bin_right,count,theory_x,theory_pdf"

    @pytest.mark.parametrize("regime,run,points", [
        (Regime.REPEATED_SKETCH, run_repeated_sketching, 512),
        (Regime.REPEATED_SAMPLE, run_repeated_sampling, 4),
    ], ids=["sketching", "sampling"])
    def test_csv_cells_match_json(self, tmp_path, regime, run, points):
        # every cell reads back as its JSON value; past the end of the
        # shorter of the bins and the overlay, cells are empty
        rep = run(dataclasses.replace(_small_cfg(regime, m=40), overlay_points=points))
        rep.write_json(tmp_path / "report.json")
        tables = json.loads((tmp_path / "report.json").read_text())["tables"]
        paths = rep.write_csvs(tmp_path / "csv")
        assert len(paths) == len(tables)
        longer = set()
        for t, path in zip(tables, paths):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["bin_left", "bin_right", "count", "theory_x", "theory_pdf"]
            columns = [t["bin_edges"][:-1], t["bin_edges"][1:], t["counts"],
                       t["overlay_x"] or [], t["overlay_pdf"] or []]
            assert len(rows) == max(len(c) for c in columns)
            longer.add("bins" if len(t["counts"]) > len(columns[3]) else "overlay")
            for i, row in enumerate(rows):
                assert len(row) == 5
                for cell, column in zip(row, columns):
                    if i < len(column):
                        assert type(column[i])(cell) == column[i], (path, i, cell)
                    else:
                        assert cell == "", (path, i)
        assert longer == ({"overlay"} if points == 512 else {"bins"})

    def test_non_finite_value_is_typed_error(self, tmp_path):
        rep = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH, m=5))
        rep.tables[0].ks_statistic = float("nan")
        jpath = tmp_path / "report.json"
        with pytest.raises(NonFinite):
            rep.write_json(jpath)
        assert not jpath.exists()
        with pytest.raises(NonFinite):
            json_text({"overlay_pdf": [1.0, float("inf")]})

    def test_summary_lines(self):
        rep = run_repeated_sketching(_small_cfg(Regime.REPEATED_SKETCH, m=40))
        lines = rep.summary_lines()
        assert len(lines) == len(rep.tables) + 1
        assert "KS" in lines[0]


def _report_bytes(rep) -> tuple:
    """The JSON report bar runtime_seconds, and every table's samples in replicate order."""
    doc = rep.to_jsonable()
    doc.pop("runtime_seconds")
    return json_text(doc), tuple(t.samples.tobytes() for t in rep.tables)


_RUNNERS = [(Regime.REPEATED_SKETCH, run_repeated_sketching),
            (Regime.REPEATED_SAMPLE, run_repeated_sampling)]


def _sketch_seed(cfg, kind_idx, r):
    """The sketch seed of replicate r of kind ``cfg.sketch_kinds[kind_idx]``."""
    if cfg.regime is Regime.REPEATED_SKETCH:
        return derive_seed(cfg.root_seed, 10_000 + kind_idx * cfg.m + r)
    return derive_seed(cfg.root_seed, 10_000 + kind_idx * 2 * cfg.m + 2 * r + 1)


def _failing_at(monkeypatch, cfg, fail):
    """Make apply_sketch raise RankDeficient at each (kind index, replicate) in ``fail``."""
    real = sim_study.apply_sketch
    seeds = {_sketch_seed(cfg, i, r): r for i, r in fail}

    def apply(data, spec, *args):
        if spec.seed in seeds:
            raise RankDeficient(f"injected at {seeds[spec.seed]} in pid {os.getpid()}")
        return real(data, spec, *args)

    monkeypatch.setattr(sim_study, "apply_sketch", apply)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the body takes longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerCounts:
    """Replicates split over 1, 2 or 3 forked workers give the serial run's results."""

    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    def test_reports_byte_identical(self, monkeypatch, regime, run):
        for m in (1, 2, 5, 60):
            cfg = _small_cfg(regime, m=m, kinds=tuple(SketchKind))
            texts = set()
            for cpus in (1, 2, 3):
                monkeypatch.setattr(sim_study, "_usable_cpus", lambda cpus=cpus: cpus)
                rep = run(cfg)
                assert rep.workers == min(cpus, m)
                texts.add(_report_bytes(rep))
            assert len(texts) == 1, f"m={m}: reports differ across worker counts"

    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    @pytest.mark.parametrize("fail", [((0, 45),), ((0, 25), (0, 45)), ((0, 59),), ((0, 0), (0, 50)),
                                      ((1, 5), (0, 45)), ((1, 45), (1, 5))])
    def test_failure_in_any_range_matches_serial(self, monkeypatch, regime, run, fail):
        # with 3 workers, [0, 60) splits into [0, 20) here and [20, 40), [40, 60)
        # in two children: the error is where a serial loop over the kinds and
        # then the replicates stops, wherever that replicate ran
        kinds = (SketchKind.CLARKSON_WOODRUFF, SketchKind.GAUSSIAN)
        cfg = _small_cfg(regime, m=60, kinds=kinds)
        _failing_at(monkeypatch, cfg, fail)
        errors = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sim_study, "_usable_cpus", lambda cpus=cpus: cpus)
            with _deadline(60), pytest.raises(RankDeficient) as info:
                run(cfg)
            errors.append(info.value)
            assert not multiprocessing.active_children()
        kind_idx, r = min(fail)
        for exc in errors:
            assert type(exc) is RankDeficient and type(exc.__cause__) is RankDeficient
            assert str(exc) == f"{kinds[kind_idx].value} replicate {r}: {exc.__cause__}"
            assert str(exc.__cause__).startswith(f"injected at {r} in pid ")
        # the serial run failed in this process, the forked ones in a child
        # (pid aside, the messages agree)
        assert str(errors[0].__cause__) == f"injected at {r} in pid {os.getpid()}"
        assert (r >= 20) == (str(errors[2].__cause__) != str(errors[0].__cause__))

    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    @pytest.mark.parametrize("kinds", [(SketchKind.HADAMARD,),
                                       (SketchKind.CLARKSON_WOODRUFF, SketchKind.HADAMARD)],
                             ids=["first-kind", "second-kind"])
    def test_dead_worker_raises_and_leaves_no_child(self, monkeypatch, regime, run, kinds):
        cfg = _small_cfg(regime, m=60, kinds=kinds)
        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: 3)
        parent, real = os.getpid(), sim_study.apply_sketch
        dying = _sketch_seed(cfg, len(kinds) - 1, 50)

        def apply(data, spec, *args):
            if spec.seed == dying and os.getpid() != parent:
                os._exit(7)
            return real(data, spec, *args)

        monkeypatch.setattr(sim_study, "apply_sketch", apply)
        with _deadline(30), pytest.raises(WorkerFailed,
                                          match=r"^hadamard replicates 40-59: .*code 7"):
            run(cfg)
        assert not multiprocessing.active_children()

    def test_serial_where_fork_is_unavailable(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert sim_study._usable_cpus() == 1
        rep = run_repeated_sampling(_small_cfg(Regime.REPEATED_SAMPLE, m=5))
        assert rep.workers == 1

    def test_one_worker_inside_a_daemonic_process(self):
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=lambda: send.send(sim_study._usable_cpus()), daemon=True)
        proc.start()
        assert recv.poll(30) and recv.recv() == 1
        proc.join(30)
        assert not proc.is_alive()
        assert sim_study._usable_cpus() == len(os.sched_getaffinity(0))


def _check_library_pivots(cfg, data, hyp, partial_in, mean, kind_idx, r, col):
    """Replicate r's pivot and partial columns are, bit for bit, the statistics
    of the library tests on that replicate's sketch in ``cfg.regime`` (a NaN
    partial column, where the library raises NegativeDenominator)."""
    if mean is not None:
        y = draw_response(mean, cfg.sigma2,
                          derive_seed(cfg.root_seed, 10_000 + 2 * (kind_idx * cfg.m + r)))
        data = data.with_response(y)
        partial_in = PartialInputs(Xty=data.X.T @ y, yty=float(y @ y))
    sk = apply_sketch(data, SketchSpec(kind=cfg.sketch_kinds[kind_idx], k=cfg.k,
                                       seed=_sketch_seed(cfg, kind_idx, r)))
    cfit, pfit = fit_complete(sk), fit_partial(sk, partial_in)
    tests = complete_marginal_t_tests(cfit, sk, hyp, 0.95, cfg.regime)
    for i, j in enumerate(cfg.targets):
        assert col[2 + 5 * i] == tests[j][0].statistic, (kind_idx, r, j)
        if np.isnan(col[6 + 5 * i]):
            with pytest.raises(NegativeDenominator):
                partial_linear_combination_test(pfit, sk, np.eye(cfg.p)[j], cfg.regime)
        else:
            partial = partial_linear_combination_test(pfit, sk, np.eye(cfg.p)[j], cfg.regime)
            assert col[6 + 5 * i] == partial.statistic, (kind_idx, r, j)


class TestReplay:
    """_replicate, called outside a run, gives the run's values for each (kind, r)."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    def test_replicate_matches_run_tables(self, monkeypatch, regime, run, cpus):
        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: cpus)
        cfg = _small_cfg(regime, m=12, kinds=(SketchKind.HADAMARD, SketchKind.GAUSSIAN))
        rep = run(cfg)
        assert rep.workers == cpus
        data, truth = sim_study._make_dataset(cfg)
        if regime is Regime.REPEATED_SKETCH:
            partial_in = PartialInputs(Xty=data.X.T @ data.y, yty=float(data.y @ data.y))
            args = (fit_full(data).beta_F, partial_in, None)
        else:
            args = (truth.beta_0, None, response_mean(data.X, truth))
        for kind_idx, kind in enumerate(cfg.sketch_kinds):
            # each replicate alone, after the run: replicates 6-11 ran in a
            # forked worker when cpus == 2
            cols = np.array([sim_study._replicate(cfg, data, *args, kind_idx, r)
                             for r in range(cfg.m)]).T
            for r in range(cfg.m):
                _check_library_pivots(cfg, data, *args, kind_idx, r, cols[:, r])
            for i, j in enumerate(cfg.targets):
                # SSR_s, sigma2_hat, then per target the pivot, its se,
                # beta_s, beta_p and the partial statistic
                pivot, _, beta_s, beta_p, part = cols[2 + 5 * i:7 + 5 * i]
                if regime is Regime.REPEATED_SKETCH:
                    expected = {f"beta_s[{j}]": beta_s, f"beta_p[{j}]": beta_p}
                else:
                    expected = {"ssr_s": cols[0], f"pivot_complete_null[{j}]": pivot,
                                f"pivot_partial_zero[{j}]": part[~np.isnan(part)]}
                for name, values in expected.items():
                    samples = rep.table(name, kind).samples
                    assert samples.tobytes() == values.tobytes(), (kind, name)


class TestAllNegativeDenominators:
    """A run in which no partial statistic exists still writes its tables."""

    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    def test_empty_partial_table_is_written(self, tmp_path, monkeypatch, regime, run):
        def negative(*args):
            raise NegativeDenominator("injected")

        monkeypatch.setattr(sim_study, "partial_t_statistic", negative)
        cfg = _small_cfg(regime, m=6)
        rep = run(cfg)
        rep.write_json(tmp_path / "report.json")
        rep.write_csvs(tmp_path / "csv")
        doc = {t["name"]: t for t in json.loads((tmp_path / "report.json").read_text())["tables"]}
        for j in cfg.targets:
            name = f"pivot_partial_zero[{j}]"
            t = rep.table(name, SketchKind.GAUSSIAN)
            assert t.samples.size == 0 and t.n_error == cfg.m
            assert t.negative_denominator_rate == 1.0
            assert t.ks_statistic is None and t.rejection_rate is None
            row = doc[name]
            assert row["count"] == 0 and row["n_error"] == cfg.m
            assert row["bin_edges"] == [0.0, 1.0] and row["counts"] == [0]
            with open(tmp_path / "csv" / f"gaussian__pivot_partial_zero_{j}.csv", newline="",
                      encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1 + cfg.overlay_points
            assert rows[1][:3] == ["0.0", "1.0", "0"]
            assert all(r[:3] == ["", "", ""] for r in rows[2:])


_FIELDS = ("coverage", "rejection_rate", "negative_denominator_rate", "n_error", "ks_statistic")
_PARTIAL_ZERO = {"rejection_rate", "negative_denominator_rate", "n_error", "ks_statistic"}


def _fields_set(t):
    """The fields of _FIELDS that table ``t`` sets: n_error where it is
    nonzero, the others where they are not None."""
    return {f for f in _FIELDS if (t.n_error != 0 if f == "n_error" else getattr(t, f) is not None)}


class TestTableLayout:
    """Each regime's tables in report order, and which of _FIELDS each sets."""

    @pytest.mark.parametrize("regime,run,head,per_target", [
        (Regime.REPEATED_SKETCH, run_repeated_sketching, [],
         [("beta_s", {"coverage", "ks_statistic"}), ("beta_p", {"ks_statistic"}),
          ("pivot_complete_null", {"rejection_rate", "ks_statistic"}),
          ("pivot_partial_zero", _PARTIAL_ZERO)]),
        (Regime.REPEATED_SAMPLE, run_repeated_sampling, [("ssr_s", set()), ("sigma2_hat", set())],
         [("pivot_complete_null", {"coverage", "rejection_rate", "ks_statistic"}),
          ("pivot_partial_zero", _PARTIAL_ZERO)]),
    ], ids=["sketching", "sampling"])
    def test_order_and_fields(self, monkeypatch, regime, run, head, per_target):
        real = sim_study.partial_t_statistic

        def some_negative(fit, sk, m_vec, regime):
            # a stack is then taken one sketch at a time; about half are NaN
            if sk.ys.ndim > 1 or sk.ys[0] > 0:
                raise NegativeDenominator("injected")
            return real(fit, sk, m_vec, regime)

        monkeypatch.setattr(sim_study, "partial_t_statistic", some_negative)
        kinds = (SketchKind.GAUSSIAN, SketchKind.HADAMARD)
        rep = run(_small_cfg(regime, m=20, kinds=kinds))
        got = [(t.sketch, t.name, _fields_set(t)) for t in rep.tables]
        assert got == [(kind.value, name, fields) for kind in kinds
                       for name, fields in head + [(f"{series}[{j}]", f) for j in (0, 2)
                                                   for series, f in per_target]]


def _range_args(cfg):
    """The data set and _replicate_range's hyp, partial_in and mean for ``cfg``."""
    data, truth = sim_study._make_dataset(cfg)
    if cfg.regime is Regime.REPEATED_SKETCH:
        return data, fit_full(data).beta_F, PartialInputs.of(data), None
    return data, truth.beta_0, None, response_mean(data.X, truth)


class TestStackedRanges:
    """A range's replicates are fitted and pivoted in stacks of _CHUNK sketches,
    each replicate's values those of its own library calls."""

    @pytest.mark.parametrize("regime", [Regime.REPEATED_SKETCH, Regime.REPEATED_SAMPLE],
                             ids=["sketching", "sampling"])
    def test_columns_do_not_depend_on_chunk_size(self, monkeypatch, regime):
        m = 10
        cfg = _small_cfg(regime, m=m, kinds=tuple(SketchKind))
        data, hyp, partial_in, mean = _range_args(cfg)
        for kind_idx in range(len(cfg.sketch_kinds)):
            # each replicate alone: the library's calls on its one, unstacked sketch
            alone = np.array([
                sim_study._statistics(cfg, hyp, *sim_study._sketch(cfg, data, partial_in, mean,
                                                                   kind_idx, r))
                for r in range(m)]).T
            for chunk in (1, 3, m):
                monkeypatch.setattr(sim_study, "_CHUNK", chunk)
                for lo in (0, 4):
                    cols, failure = sim_study._replicate_range(cfg, data, hyp, partial_in, mean,
                                                               kind_idx, lo, m)
                    assert failure is None
                    assert cols.tobytes() == alone[:, lo:].tobytes(), (kind_idx, chunk, lo)

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    @pytest.mark.parametrize("collinear,failing,expected", [
        (3, 5, (RankDeficient, 3)), (3, 2, (NonFinite, 2))], ids=["fit-first", "sketch-first"])
    def test_failure_where_a_serial_loop_stops(self, monkeypatch, chunk, collinear, failing,
                                               expected):
        # replicate ``collinear`` has a rank-deficient sketched design, so its
        # fit fails; ``failing``'s sketch fails outright
        cfg = _small_cfg(Regime.REPEATED_SKETCH, m=10)
        if chunk is not None:
            monkeypatch.setattr(sim_study, "_CHUNK", chunk)
        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: 1)
        real = sim_study.apply_sketch
        bad_fit, bad_sketch = _sketch_seed(cfg, 0, collinear), _sketch_seed(cfg, 0, failing)

        def apply(data, spec, *args):
            if spec.seed == bad_sketch:
                raise NonFinite(f"injected at {failing}")
            sk = real(data, spec, *args)
            if spec.seed == bad_fit:
                Xs = sk.Xs.copy()
                Xs[:, 1] = Xs[:, 0]
                sk = dataclasses.replace(sk, Xs=Xs)
            return sk

        monkeypatch.setattr(sim_study, "apply_sketch", apply)
        error, r = expected
        with pytest.raises(error, match=f"^gaussian replicate {r}: ") as info:
            run_repeated_sketching(cfg)
        assert type(info.value.__cause__) is error

    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    def test_one_stacked_qr_per_chunk(self, monkeypatch, regime, run):
        shapes = []
        real = estimators._qr_full_rank

        def counting(A):
            shapes.append(A.shape)
            return real(A)

        monkeypatch.setattr(estimators, "_qr_full_rank", counting)
        monkeypatch.setattr(sim_study, "_CHUNK", 4)
        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: 1)
        cfg = _small_cfg(regime, m=10, kinds=(SketchKind.HADAMARD, SketchKind.GAUSSIAN))
        run(cfg)
        # ranges of 10 in stacks of 4, 4 and 2, per kind; none taken one by one
        assert shapes == [(c, cfg.k, cfg.p) for c in (4, 4, 2)] * 2


class TestRangeState:
    """A range derives its seeds once per stack of _CHUNK replicates, and under
    repeated sampling writes every fresh response into one buffer that no
    returned sketch or partial input views."""

    @pytest.mark.parametrize("regime,run", _RUNNERS, ids=["sketching", "sampling"])
    def test_seeds_once_per_chunk(self, monkeypatch, regime, run):
        spans = []
        real = sim_study.derive_seeds

        def counting(root, start, stop):
            spans.append(stop - start)
            return real(root, start, stop)

        monkeypatch.setattr(sim_study, "derive_seeds", counting)
        monkeypatch.setattr(sim_study, "_CHUNK", 4)
        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: 1)
        run(_small_cfg(regime, m=10, kinds=(SketchKind.HADAMARD, SketchKind.GAUSSIAN)))
        # ranges of 10 in stacks of 4, 4 and 2, per kind, d seeds per replicate
        d = 2 if regime is Regime.REPEATED_SAMPLE else 1
        assert spans == [d * c for c in (4, 4, 2)] * 2

    def test_nothing_returned_views_the_buffer(self, monkeypatch):
        buffers, returned = [], []

        class Recording(core_model._ResponseBuffer):
            def __init__(self, data):
                super().__init__(data)
                buffers.append(self.array)

        real_apply, real_sketch = sim_study.apply_sketch, sim_study._sketch

        def apply(data, spec, *args):
            # the sketch reads the fresh response through a read-only view of the buffer
            assert not data.yX.flags.writeable and np.shares_memory(data.yX, buffers[-1])
            assert np.array_equal(data.yX[:, 0], data.y)
            return real_apply(data, spec, *args)

        def sketch(*args):
            out = real_sketch(*args)
            returned.append(out)
            return out

        monkeypatch.setattr(sim_study, "_ResponseBuffer", Recording)
        monkeypatch.setattr(sim_study, "apply_sketch", apply)
        monkeypatch.setattr(sim_study, "_sketch", sketch)
        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: 1)
        cfg = _small_cfg(Regime.REPEATED_SAMPLE, m=10, kinds=tuple(SketchKind))
        run_repeated_sampling(cfg)
        assert len(buffers) == len(cfg.sketch_kinds) and len(returned) == 10 * len(buffers)
        for sk, partial_in in returned:
            for value in (sk.Xs, sk.ys, partial_in.Xty):
                assert not any(np.shares_memory(value, b) for b in buffers)

