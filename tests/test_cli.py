"""Command-line interface: exit codes, report schemas, determinism."""

import csv
import dataclasses
import json
import math
import os
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sketch_infer import cli
from sketch_infer.cli import _CliError, main
from sketch_infer.errors import NegativeDenominator, RankDeficient, SketchInferError


INFER_ROW_KEYS = {"index", "name", "estimate", "null_value", "statistic", "pivot",
                  "p_value", "ci_lower", "ci_upper", "flag"}


def _write_csv(path, X, y, names=None):
    p = X.shape[1]
    names = names or [f"x{i}" for i in range(p)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + ["y"])
        for i in range(X.shape[0]):
            w.writerow(list(X[i]) + [y[i]])


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((80, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(80)
    path = tmp_path / "data.csv"
    _write_csv(path, X, y)
    return path


class TestFit:
    def test_json_report_shape(self, data_csv, tmp_path):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--input", str(data_csv), "--response", "y",
                   "--k", "10", "--seed", "5", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == "sketch-infer/1"
        assert rep["mode"] == "complete"
        assert len(rep["estimates"]) == 3
        assert rep["ssr_s"] > 0

    def test_round_trip_exact_floats(self, data_csv, tmp_path):
        import sketch_infer as si

        out = tmp_path / "fit.json"
        main(["fit", "--input", str(data_csv), "--response", "y",
              "--k", "10", "--seed", "5", "--output", str(out)])
        rep = json.loads(out.read_text())
        with open(data_csv) as fh:
            rows = list(csv.reader(fh))
        M = np.array([[float(c) for c in r] for r in rows[1:]])
        data = si.DataSet(X=M[:, :3], y=M[:, 3])
        sk = si.apply_sketch(data, si.SketchSpec(kind=si.SketchKind.GAUSSIAN, k=10, seed=5))
        fit = si.fit_complete(sk)
        got = [e["estimate"] for e in rep["estimates"]]
        assert got == [float(b) for b in fit.beta]  # bitwise round trip
        assert rep["ssr_s"] == fit.SSR_s

    @pytest.mark.parametrize("k", ["0", "-1", "3"])
    def test_small_k_exit_3(self, data_csv, tmp_path, k):
        rc = main(["fit", "--input", str(data_csv), "--response", "y",
                   "--k", k, "--seed", "1", "--output", str(tmp_path / "o.json")])
        assert rc == 3

    def test_hadamard_k_above_padded_size_exit_3(self, tmp_path, capsys):
        # 5 rows pad to n' = 8: the Hadamard sketch cannot sample 9 distinct
        # rows, while a Gaussian sketch with k > n still fits (without W*)
        path = tmp_path / "tiny.csv"
        _write_csv(path, np.arange(1.5, 6.5)[:, None], 2.0 * np.arange(5.0) - 0.3)
        argv = ["fit", "--input", str(path), "--response", "y", "--k", "9",
                "--output", str(tmp_path / "o.json")]
        assert main(argv + ["--sketch", "hadamard"]) == 3
        assert "needs k <= padded size (k=9, n'=8)" in capsys.readouterr().err
        assert main(argv + ["--sketch", "gaussian"]) == 0

    def test_deterministic_bytes(self, data_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fit", "--input", str(data_csv), "--response", "y",
                "--k", "10", "--seed", "7"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parse_error_names_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1.0,2.0,3.0\n1.0,oops,2.0\n")
        rc = main(["fit", "--input", str(path), "--response", "y",
                   "--k", "4", "--seed", "1", "--output", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "'b'" in err and "oops" in err

    @pytest.mark.parametrize("raw", [b"a,y\n1,2\n3,\xe9\n", b"a,\xe9y\n1,2\n3,4\n"],
                             ids=["data-row", "header"])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        out = tmp_path / "o.json"
        rc = main(["fit", "--input", str(path), "--response", "y",
                   "--k", "3", "--seed", "1", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err and "0xe9" in err
        assert "Traceback" not in err and not out.exists()

    def test_missing_response_column(self, data_csv, tmp_path, capsys):
        rc = main(["fit", "--input", str(data_csv), "--response", "zzz",
                   "--k", "10", "--seed", "1", "--output", str(tmp_path / "o.json")])
        assert rc == 2
        assert "zzz" in capsys.readouterr().err

    def test_response_by_index_and_intercept(self, data_csv, tmp_path):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--input", str(data_csv), "--response", "3", "--intercept",
                   "--k", "12", "--seed", "2", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["p"] == 4
        assert rep["estimates"][0]["name"] == "(intercept)"

    def test_csv_format(self, data_csv, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--input", str(data_csv), "--response", "y",
                   "--k", "10", "--seed", "5", "--output", str(out), "--format", "csv"])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "name", "estimate"]
        assert len(rows) == 4

    def test_writes_only_output_path(self, data_csv, tmp_path):
        out_dir = tmp_path / "only"
        out_dir.mkdir()
        out = out_dir / "fit.json"
        main(["fit", "--input", str(data_csv), "--response", "y",
              "--k", "10", "--seed", "5", "--output", str(out)])
        assert [p.name for p in out_dir.iterdir()] == ["fit.json"]

    def test_negative_seed_exit_2(self, data_csv, tmp_path, capsys):
        # numpy's bare ValueError at the first draw (exit 1)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--input", str(data_csv), "--response", "y",
                   "--k", "10", "--seed", "-1", "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: sketch seed must be >= 0, got -1\n"
        assert not out.exists()


class TestOutputPaths:
    """An output path that cannot be written exits 2 with one error line; each
    case was a traceback (exit 1), and simulate found out after its run."""

    @staticmethod
    def _paths(tmp_path):
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        return {"missing_dir": tmp_path / "no_such_dir" / "out", "a_dir": tmp_path / "a_dir",
                "a_file": tmp_path / "a_file", "under_a_file": tmp_path / "a_file" / "out"}

    @pytest.mark.parametrize("case", ["missing_dir", "a_dir", "under_a_file"])
    @pytest.mark.parametrize("command,fmt", [("fit", "json"), ("infer", "csv")])
    def test_report_file(self, data_csv, tmp_path, capsys, command, fmt, case):
        out = self._paths(tmp_path)[case]
        rc = main([command, "--input", str(data_csv), "--response", "y", "--k", "10",
                   "--format", fmt, "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("case", ["a_file", "under_a_file"])
    def test_simulate_output_dir_before_the_run(self, tmp_path, capsys, monkeypatch, case):
        def not_called(cfg):
            raise AssertionError("the runner ran before the output directory was made")

        monkeypatch.setattr(cli, "run_repeated_sketching", not_called)
        out_dir = self._paths(tmp_path)[case]
        rc = main(["simulate", "--preset", "desk", "--m", "2", "--output-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory: ") and err.count("\n") == 1


class TestInfer:
    def test_complete_mode_reports_cis(self, data_csv, tmp_path):
        out = tmp_path / "infer.json"
        rc = main(["infer", "--input", str(data_csv), "--response", "y",
                   "--k", "10", "--seed", "5", "--alpha", "0.05", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["alpha"] == 0.05
        for c in rep["coefficients"]:
            assert c["ci_lower"] < c["estimate"] < c["ci_upper"]
            assert 0.0 <= c["p_value"] <= 1.0
            assert c["pivot"] == "t(7)"

    def test_partial_univariate_routes_chi2(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(60) + 1.0
        y = 2.0 * x + 0.3 * rng.standard_normal(60)
        path = tmp_path / "uni.csv"
        _write_csv(path, x[:, None], y, names=["x"])
        out = tmp_path / "infer.json"
        rc = main(["infer", "--input", str(path), "--response", "y", "--mode", "partial",
                   "--k", "12", "--seed", "4", "--null", "1.9", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["coefficients"][0]["pivot"] == "chi2(12)"

    def test_partial_univariate_zero_estimate_flagged(self, tmp_path):
        # x'y = 0 exactly, so the partial estimate is exactly zero
        x = np.tile([1.0, -1.0], 30)
        y = np.ones(60) + 0.25 * np.repeat([1.0, -1.0], 30)
        assert float(x @ y) == 0.0
        path = tmp_path / "zero.csv"
        _write_csv(path, x[:, None], y, names=["x"])
        out = tmp_path / "infer.json"
        rc = main(["infer", "--input", str(path), "--response", "y", "--mode", "partial",
                   "--k", "12", "--seed", "4", "--null", "1.0", "--output", str(out)])
        assert rc == 0
        coef = json.loads(out.read_text())["coefficients"][0]
        assert coef["estimate"] == 0.0
        assert coef["flag"] == "partial estimate is exactly zero"
        assert coef["statistic"] is None and coef["p_value"] is None

    def test_partial_multivariate_zero_null(self, data_csv, tmp_path):
        out = tmp_path / "infer.json"
        rc = main(["infer", "--input", str(data_csv), "--response", "y", "--mode", "partial",
                   "--k", "12", "--seed", "4", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert all(c["pivot"] in (None, "t(10)") for c in rep["coefficients"])

    def test_partial_negative_denominator_flagged(self, data_csv, tmp_path, monkeypatch):
        def negative(*args):
            raise NegativeDenominator("injected")

        monkeypatch.setattr(cli, "partial_linear_combination_test", negative)
        reports = {}
        for fmt in ("json", "csv"):
            reports[fmt] = tmp_path / f"infer.{fmt}"
            rc = main(["infer", "--input", str(data_csv), "--response", "y", "--mode", "partial",
                       "--k", "12", "--seed", "4", "--format", fmt,
                       "--output", str(reports[fmt])])
            assert rc == 0
        coefficients = json.loads(reports["json"].read_text())["coefficients"]
        with open(reports["csv"], newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == cli._INFER_CSV_HEADER and len(rows) == len(coefficients) == 3
        for c, row in zip(coefficients, rows):
            assert c["flag"] == "negative denominator: injected"
            assert c["statistic"] is None and c["pivot"] is None and c["p_value"] is None
            cells = dict(zip(header, row))
            assert float(cells["estimate"]) == c["estimate"]
            assert cells["flag"] == c["flag"]
            assert [cells[h] for h in ("statistic", "p_value", "ci_lower", "ci_upper")] == [""] * 4

    def test_efficient_without_wstar_exit_4(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 2))
        y = X @ np.array([1.0, -1.0]) + rng.standard_normal(6)
        path = tmp_path / "tiny.csv"
        _write_csv(path, X, y)
        rc = main(["infer", "--input", str(path), "--response", "y", "--mode", "efficient",
                   "--k", "8", "--seed", "3", "--output", str(tmp_path / "o.json")])
        assert rc == 4

    def test_efficient_mode_reports(self, data_csv, tmp_path):
        out = tmp_path / "inf_eff.json"
        rc = main(["infer", "--input", str(data_csv), "--response", "y", "--mode", "efficient",
                   "--k", "12", "--seed", "6", "--output", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert all(c["pivot"] == "t(77)" for c in rep["coefficients"])


    @pytest.mark.parametrize("mode,residual", [("complete", "SSR_s"), ("efficient", "SSR*")],
                             ids=["complete", "efficient"])
    def test_noiseless_exit_2(self, tmp_path, capsys, mode, residual):
        # y = X (1, 2) exactly: SSR_s, and the centered SSR* at the true null,
        # are roundoff
        X = np.column_stack([np.arange(60) % 7 - 3.0, (5 * np.arange(60)) % 11 - 5.0])
        path = tmp_path / "noiseless.csv"
        _write_csv(path, X, X @ np.array([1.0, 2.0]))
        out = tmp_path / "o.json"
        rc = main(["infer", "--input", str(path), "--response", "y", "--mode", mode,
                   "--k", "10", "--null", "1,2", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and residual in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1,2,0.5", "-.5", "-1e-3,2.5,-4"])
    def test_negative_null_space_separated(self, tmp_path, data_csv, value):
        # a null list starting with a minus sign reads the same after a space
        # as after "="
        base = ["infer", "--input", str(data_csv), "--response", "y", "--k", "20",
                "--mode", "complete", "--seed", "3"]
        spaced, glued = tmp_path / "spaced.json", tmp_path / "glued.json"
        assert main(base + ["--null", value, "--output", str(spaced)]) == 0
        assert main(base + [f"--null={value}", "--output", str(glued)]) == 0
        assert spaced.read_bytes() == glued.read_bytes()
        nulls = [c["null_value"] for c in json.loads(spaced.read_text())["coefficients"]]
        parsed = [float(v) for v in value.split(",")]
        assert nulls == (parsed if len(parsed) == 3 else parsed * 3)

    @pytest.mark.parametrize("value", ["nan", "inf", "1,-inf,2"])
    def test_non_finite_null_exit_2(self, tmp_path, data_csv, capsys, value):
        out = tmp_path / "o.csv"
        rc = main(["infer", "--input", str(data_csv), "--response", "y", "--k", "20",
                   "--format", "csv", f"--null={value}", "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: null values must be finite, got '{value}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["complete", "partial", "efficient"])
    @pytest.mark.parametrize("alpha", ["5", "-1", "0", "1", "nan"])
    def test_alpha_outside_unit_interval_exit_2(self, tmp_path, data_csv, capsys, mode, alpha):
        out = tmp_path / "o.json"
        argv = ["infer", "--input", str(data_csv), "--response", "y", "--k", "20",
                "--mode", mode, "--alpha", alpha, "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --alpha must be in (0, 1), got {float(alpha)}\n")
        assert not out.exists()
        # checked before the input is read
        argv[2] = str(tmp_path / "missing.csv")
        assert main(argv) == 2
        assert "--alpha" in capsys.readouterr().err

    def test_null_without_value_is_usage_error(self, tmp_path, data_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--input", str(data_csv), "--response", "y", "--k", "20",
                  "--null", "--output", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), n=st.integers(8, 40),
           k_extra=st.integers(1, 12), noise=st.sampled_from([0.0, 1.0]),
           null=st.sampled_from(["zero", "true", "broadcast", "each"]))
    def test_coefficient_rows(self, tmp_path, seed, p, n, k_extra, noise, null):
        """Rows of every mode share one key set, p-values lie in [0, 1], exits are documented."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        beta = rng.integers(-3, 4, p).astype(float)
        path = tmp_path / "prop.csv"
        _write_csv(path, X, X @ beta + noise * rng.standard_normal(n))
        nulls = {"zero": [], "true": ["--null", ",".join(map(repr, beta.tolist()))],
                 "broadcast": ["--null", "0.5"],
                 "each": ["--null", ",".join(map(repr, rng.normal(size=p).tolist()))]}[null]
        out = tmp_path / "prop.json"
        for mode in ("complete", "partial", "efficient"):
            out.unlink(missing_ok=True)
            rc = main(["infer", "--input", str(path), "--response", "y", "--mode", mode,
                       "--k", str(p + k_extra), "--seed", str(seed % 1000),
                       "--output", str(out)] + nulls)
            assert rc in (0, 2, 3, 4)
            if rc != 0:
                continue
            rows = json.loads(out.read_text())["coefficients"]
            assert len(rows) == p
            for row in rows:
                assert set(row) == INFER_ROW_KEYS
                assert row["p_value"] is None or 0.0 <= row["p_value"] <= 1.0


class TestSimulate:
    def test_config_file_run(self, tmp_path, capsys):
        cfg = {
            "n": 250, "p": 4, "k": 12, "m": 25,
            "beta0": [2.0, -1.0, 0.0, 1.0], "sigma2": 1.0,
            "sketch_kinds": ["gaussian"], "targets": [0, 2],
            "root_seed": 5, "rep_draws": 5000,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path), "--regime", "sketching",
                   "--output-dir", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["m"] == 25
        assert any(p.suffix == ".csv" for p in out_dir.iterdir())
        assert "KS" in capsys.readouterr().out

    def test_desk_sparse_beta0_runs(self, tmp_path):
        # beta0 = e_1 at desk size: beta_p[1]'s |loc| / c is ~60, where the
        # law's integrand over R steps too sharply for its rule and the law
        # is evaluated over T
        cfg = {"n": 2000, "p": 11, "k": 21, "m": 30, "beta0": [0.0, 1.0] + [0.0] * 9,
               "sigma2": 1.0, "sketch_kinds": ["gaussian"], "targets": [1, 0], "root_seed": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path), "--regime", "sketching",
                   "--output-dir", str(out_dir)])
        assert rc == 0
        tables = {t["name"]: t for t in json.loads((out_dir / "report.json").read_text())["tables"]}
        for j in (0, 1):
            assert 0.01 < tables[f"beta_p[{j}]"]["ks_p"] <= 1.0
            assert len(tables[f"beta_p[{j}]"]["overlay_x"]) == 512

    @pytest.mark.parametrize("key,flag,regime", [
        (None, "sampling", "repeated_sample"),
        (None, None, "repeated_sketch"),
        ("repeated_sample", None, "repeated_sample"),
        ("repeated_sample", "sampling", "repeated_sample"),
        ("repeated_sketch", "sampling", None),
        ("repeated_sample", "sketching", None),
    ])
    def test_config_regime_and_flag(self, tmp_path, capsys, key, flag, regime):
        # the flag fills in a config without a regime and must agree with
        # one that has it; a conflict (regime None here) exits 2
        cfg = {"n": 250, "p": 4, "k": 12, "m": 3, "beta0": [2.0, -1.0, 0.0, 1.0],
               "sigma2": 1.0, "sketch_kinds": ["gaussian"], "targets": [0],
               "root_seed": 5, "rep_draws": 2000}
        if key is not None:
            cfg["regime"] = key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)]
        rc = main(argv + ([] if flag is None else ["--regime", flag]))
        if regime is None:
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: --regime {flag} conflicts with the config's regime '{key}'\n")
            assert not out_dir.exists()
        else:
            assert rc == 0
            assert json.loads((out_dir / "report.json").read_text())["config"]["regime"] == regime

    def test_config_takes_m_and_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": 7, "beta0": [2.0, -1.0, 0.0, 1.0],
            "sigma2": 1.0, "sketch_kinds": ["gaussian"], "targets": [0],
            "root_seed": 5, "rep_draws": 2000,
        }))
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg_path), "--m", "3", "--seed", "9",
                   "--output-dir", str(out_dir)])
        assert rc == 0
        config = json.loads((out_dir / "report.json").read_text())["config"]
        assert (config["m"], config["root_seed"]) == (3, 9)

    def test_preset_excludes_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 7}))
        out_dir = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "desk", "--config", str(cfg_path), "--m", "2",
                  "--output-dir", str(out_dir)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--preset" in err and "--config" in err
        assert not out_dir.exists()

    def test_failing_replicate_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": 5, "beta0": [2.0, -1.0, 0.0, 1.0],
            "sigma2": 0.0, "sketch_kinds": ["gaussian"], "targets": [0],
            "root_seed": 5, "rep_draws": 2000,
        }))
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gaussian replicate 0: ") and "Traceback" not in err
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("cpus,m,named", [(1, 5, "on 1 worker;"), (3, 2, "on 2 workers;")])
    def test_runtime_line_names_workers(self, tmp_path, capsys, monkeypatch, cpus, m, named):
        from sketch_infer import sim_study

        monkeypatch.setattr(sim_study, "_usable_cpus", lambda: cpus)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": m, "beta0": [2.0, -1.0, 0.0, 1.0],
            "sigma2": 1.0, "sketch_kinds": ["hadamard"], "targets": [0],
            "root_seed": 5, "rep_draws": 2000,
        }))
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
        assert rc == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("runtime: ") and named in last

    def test_invalid_sketch_name_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": 5, "beta0": [0, 0, 0, 0], "sigma2": 1.0,
            "sketch_kinds": ["fourier"], "targets": [0], "root_seed": 1,
        }))
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "gaussian" in err and "hadamard" in err and "clarkson_woodruff" in err

    # each count or index of a config that is not an integer, or a count
    # below its least value, varied on a 300 x 3 design with k = 21
    BAD_FIELDS = [("k", 21.5), ("m", 2.5), ("n", 300.5), ("p", 3.0), ("root_seed", 1.5),
                  ("rep_draws", 2000.0), ("overlay_points", 16.0), ("targets", [0.5]),
                  ("n", True), ("m", True), ("k", False), ("targets", [True]),
                  ("rep_draws", -1), ("overlay_points", -3), ("m", 0), ("n", -5),
                  ("root_seed", -1), ("p", 0)]

    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_bad_count_exit_2(self, tmp_path, capsys, field, value):
        cfg = {"n": 300, "p": 3, "k": 21, "m": 2, "beta0": [1.0, 0.0, -1.0], "sigma2": 1.0,
               "sketch_kinds": ["gaussian"], "targets": [0], "root_seed": 5, "rep_draws": 2000,
               "overlay_points": 16, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.match(rf"error: invalid simulation config: {field} "
                        r"(takes integers only|must be >= [01]), got ", err), err
        assert not out_dir.exists()

    # sigma2 and beta0 values a config can hold that are not finite reals
    # (sigma2 also below 0; the JSON module reads NaN and Infinity), a
    # non-real alpha, list fields that are not lists and an unknown regime
    BAD_PARAMETERS = [("sigma2", "1"), ("sigma2", None), ("sigma2", True), ("sigma2", math.nan),
                      ("sigma2", -1.0), ("sigma2", math.inf), ("beta0", [1.0, math.nan, -1.0]),
                      ("beta0", [1.0, -math.inf, -1.0]), ("beta0", [1.0, None, -1.0]),
                      ("beta0", "abc"), ("beta0", [True, False, True]), ("alpha", "0.05"),
                      ("alpha", None), ("targets", 0), ("sketch_kinds", 3),
                      ("sketch_kinds", "gaussian"), ("regime", "sketching")]

    @pytest.mark.parametrize("field,value", BAD_PARAMETERS)
    def test_bad_parameter_exit_2(self, tmp_path, capsys, field, value):
        cfg = {"n": 300, "p": 3, "k": 21, "m": 2, "beta0": [1.0, 0.0, -1.0], "sigma2": 1.0,
               "sketch_kinds": ["gaussian"], "targets": [0], "root_seed": 5, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid simulation config: {field} "), err
        assert "Traceback" not in err and "valid sketches" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("k", 12.5, "k takes integers only, got 12.5"),
        ("sketch_kinds", ["fourier"], "'fourier' is not a valid SketchKind "
                                      "(valid sketches: gaussian, hadamard, clarkson_woodruff)"),
    ])
    def test_sketch_hint_only_for_sketch_names(self, tmp_path, capsys, field, value, message):
        cfg = {"n": 250, "p": 4, "k": 12, "m": 5, "beta0": [0, 0, 0, 0], "sigma2": 1.0,
               "sketch_kinds": ["gaussian"], "targets": [0], "root_seed": 1, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: invalid simulation config: {message}\n"

    # an empty list ran and reported no table; a repeated one wrote 16
    # tables to report.json and 4 CSV files, each later one over the earlier
    @pytest.mark.parametrize("field,value", [("sketch_kinds", []), ("targets", []),
                                             ("sketch_kinds", ["gaussian", "gaussian"]),
                                             ("targets", [0, 0])])
    def test_empty_or_repeated_list_exit_2(self, tmp_path, capsys, field, value):
        cfg = {"n": 300, "p": 3, "k": 21, "m": 2, "beta0": [1.0, 0.0, -1.0], "sigma2": 1.0,
               "sketch_kinds": ["gaussian"], "targets": [0], "root_seed": 5, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: invalid simulation config: {field} must be a "
                                           f"nonempty list of distinct values, got {value!r}\n")
        assert not out_dir.exists()

    def test_rep_draws_zero_runs(self, tmp_path):
        # rep_draws is accepted and read by nothing: the beta_p reference law is exact
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": 5, "beta0": [2.0, -1.0, 0.0, 1.0], "sigma2": 1.0,
            "sketch_kinds": ["gaussian"], "targets": [0, 2], "root_seed": 5, "rep_draws": 0,
        }))
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg_path), "--regime", "sketching",
                   "--output-dir", str(out_dir)])
        assert rc == 0
        tables = json.loads((out_dir / "report.json").read_text())["tables"]
        assert all(t["ks_statistic"] is not None for t in tables if t["name"].startswith("beta_p"))

    def test_negative_seed_option_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--preset", "desk", "--m", "2", "--seed", "-1",
                   "--output-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == "error: root_seed must be >= 0, got -1\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("text,kind", [("[1, 2]", "an array"), ('"abc"', "a string"),
                                           ("null", "null"), ("3", "a number"),
                                           ("2.5", "a number"), ("true", "a boolean")])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out_dir = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: invalid simulation config: expected a JSON object, got {kind}\n")
        assert not out_dir.exists()

    def test_desk_preset_smoke(self, tmp_path):
        import time

        t0 = time.perf_counter()
        rc = main(["simulate", "--preset", "desk", "--regime", "sketching",
                   "--m", "10", "--output-dir", str(tmp_path / "o")])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 5.0


class TestExitCodes:
    """Each error type carries its exit code, as the README's table documents it."""

    def test_every_error_type_has_its_documented_code(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        documented = {m[1]: int(m[2]) for m in re.finditer(r"^\| `(\w+)` \| (\d) \|", readme, re.M)}

        def walk(cls):
            yield cls
            for sub in cls.__subclasses__():
                yield from walk(sub)

        types = {cls.__name__: cls for cls in walk(SketchInferError)}
        cli_own = types.pop("_CliError")
        assert sorted(documented) == sorted(types)
        assert {name: cls.exit_code for name, cls in types.items()} == documented
        assert cli_own.exit_code == 2

    def test_failing_replicate_exits_with_its_type_code(self, tmp_path, capsys, monkeypatch):
        from sketch_infer import sim_study

        def rank_deficient(*args, **kwargs):
            raise RankDeficient("sketched design is rank deficient")

        monkeypatch.setattr(sim_study, "fit_complete", rank_deficient)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": 3, "beta0": [2.0, -1.0, 0.0, 1.0],
            "sigma2": 1.0, "sketch_kinds": ["gaussian"], "targets": [0],
            "root_seed": 5, "rep_draws": 2000,
        }))
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: gaussian replicate 0: sketched design")


class TestNonFiniteReport:
    """JSON has no NaN/Infinity: a non-finite value is exit 2, with no file written."""

    def test_fit_report(self, data_csv, tmp_path, monkeypatch, capsys):
        real = cli.fit_complete
        monkeypatch.setattr(cli, "fit_complete",
                            lambda sk: dataclasses.replace(real(sk), SSR_s=float("nan")))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--input", str(data_csv), "--response", "y",
                   "--k", "10", "--seed", "5", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_simulation_report(self, tmp_path, monkeypatch, capsys):
        real = cli.run_repeated_sketching

        def with_nan(cfg):
            rep = real(cfg)
            rep.tables[0].overlay_pdf = np.full(cfg.overlay_points, np.inf)
            return rep

        monkeypatch.setattr(cli, "run_repeated_sketching", with_nan)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 250, "p": 4, "k": 12, "m": 5, "beta0": [2.0, -1.0, 0.0, 1.0],
            "sigma2": 1.0, "sketch_kinds": ["gaussian"], "targets": [0],
            "root_seed": 5, "rep_draws": 2000,
        }))
        out_dir = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg_path), "--output-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and "Traceback" not in err
        assert not (out_dir / "report.json").exists()

    def test_partial_inputs_overflow(self, tmp_path, capsys):
        # X'y and y'y overflow, the QR and the sketch do not: PartialInputs
        # reports NonFinite, with no numpy warning ahead of it
        x = np.array([6.0, -2.0, 1.0, 4.0, 5.0, -1.0, 3.0]) * 1e161
        y = np.array([6.0, 5.0, -3.0, 2.0, 1.0, -4.0, 6.0]) * 1e161
        path = tmp_path / "huge.csv"
        _write_csv(path, x[:, None], y)
        out = tmp_path / "infer.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["infer", "--input", str(path), "--response", "y", "--mode", "partial",
                       "--k", "3", "--seed", "0", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: partial inputs contain NaN or infinite entries")
        assert not out.exists()

    @pytest.mark.parametrize("mode,overflowing", [("complete", "||y_s||^2"),
                                                  ("efficient", "||y - X h||^2")])
    def test_sum_of_squares_overflow(self, tmp_path, capsys, mode, overflowing):
        # the design of test_partial_inputs_overflow: the sketched sums of
        # squares overflow in complete mode, the null-centered total sum of
        # squares in efficient mode
        x = np.array([6.0, -2.0, 1.0, 4.0, 5.0, -1.0, 3.0]) * 1e161
        y = np.array([6.0, 5.0, -3.0, 2.0, 1.0, -4.0, 6.0]) * 1e161
        path = tmp_path / "huge.csv"
        _write_csv(path, x[:, None], y)
        out = tmp_path / "infer.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["infer", "--input", str(path), "--response", "y", "--mode", mode,
                       "--k", "3", "--seed", "0", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and overflowing in err and "overflow" in err
        assert not out.exists()


class TestScaleInvariantRank:
    """The rank check does not depend on the scale of the covariates."""

    def _infer(self, tmp_path, name, X, y):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        _write_csv(path, X, y)
        rc = main(["infer", "--input", str(path), "--response", "y", "--intercept",
                   "--k", "50", "--mode", "complete", "--output", str(out)])
        return rc, out

    def test_disparate_scales_fit_as_rescaled(self, tmp_path):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((2000, 2))
        y = 1.0 + Z @ np.array([0.5, -1.5]) + rng.standard_normal(2000)
        scale = np.array([1e-6, 1e5])
        estimates = []
        for name, X in (("scaled", Z * scale), ("unit", Z)):
            rc, out = self._infer(tmp_path, name, X, y)
            assert rc == 0
            estimates.append([c["estimate"] for c in json.loads(out.read_text())["coefficients"]])
        scaled, unit = np.array(estimates)
        np.testing.assert_allclose(scaled * np.array([1.0, *scale]), unit, rtol=1e-9)

    def test_collinear_column_exit_3(self, tmp_path, capsys):
        z = np.random.default_rng(13).standard_normal(2000)
        rc, out = self._infer(tmp_path, "collinear", np.column_stack([z * 1e-6, z * 1e5]), z)
        assert rc == 3
        assert "min_j |R_jj| / ||X_j||" in capsys.readouterr().err
        assert not out.exists()


def _read_csv_reference(path: str, response: str, intercept: bool):
    """The cell-by-cell CSV parser the streaming one replaced, kept as its oracle."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot open input file: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _CliError("input file is empty (a header row is required)")
        header = [h.strip() for h in header]
        if response in header:
            r_idx = header.index(response)
        else:
            try:
                r_idx = int(response)
            except ValueError:
                raise _CliError(
                    f"response column '{response}' not found; columns are {header}",
                )
            if not 0 <= r_idx < len(header):
                raise _CliError(f"response index {r_idx} outside 0..{len(header) - 1}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise _CliError(
                    f"row {line_no}: expected {len(header)} fields, found {len(row)}",
                )
            vals = []
            for c_idx, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise _CliError(
                        f"row {line_no}, column '{header[c_idx]}': "
                        f"could not parse {cell.strip()!r} as a number",
                    )
            rows.append(vals)
        if not rows:
            raise _CliError("input file contains no data rows")
    M = np.asarray(rows, dtype=float)
    y = M[:, r_idx]
    X = np.delete(M, r_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != r_idx]
    if intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
        names = ["(intercept)"] + names
    return X, y, names


def _parse_outcome(parser, path, response, intercept):
    """Bit-level fingerprint of a parse: the arrays' bytes and names, or the error."""
    try:
        X, y, names = parser(str(path), response, intercept)
    except _CliError as exc:
        return ("error", exc.exit_code, str(exc))
    return ("ok", X.dtype, X.shape, X.tobytes(), y.dtype, y.shape, y.tobytes(), names)


_floats = st.floats(allow_nan=True, allow_infinity=True)
_decimal30 = st.tuples(
    st.sampled_from(["", "-", "+"]), st.integers(0, 10**30 - 1), st.integers(0, 30),
).map(lambda t: f"{t[0]}{str(t[1]).zfill(30)[:t[2]]}.{str(t[1]).zfill(30)[t[2]:]}")
_number = st.one_of(_floats.map(repr), _floats.map(lambda v: "%.17g" % v), _decimal30)
_odd = st.sampled_from([
    "1_0", "#", "#1", "0x1", "nan", "-inf", "Infinity", "", "1e400", "1.", ".5", "abc",
    "١", "1 2", '1"2"', "1\x00",
])
_pad = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0", "\x0b", "\x0c"])
# loadtxt strips these around a number, float() does not
_separator_pad = st.sampled_from(["\x1c", "\x1f"])


@st.composite
def _cells(draw, clean):
    pad = _pad if clean else st.one_of(_pad, _pad, _separator_pad)
    core = draw(_number if clean else st.one_of(_number, _number, _odd))
    if draw(st.integers(0, 3)) == 0:
        core = '"' + draw(pad) + core + draw(pad) + '"'
        if clean:  # csv.reader takes a quote as one only at the start of a cell
            return core + draw(pad)
        core += draw(st.sampled_from(["", " ", "2", "e3", '"']))
    return draw(pad) + core + draw(pad)


@st.composite
def _csv_texts(draw):
    """A header with 1-4 columns, then number rows; unless clean, ragged and odd rows too."""
    clean = draw(st.booleans())
    n_cols = draw(st.integers(1, 4))
    lines = [",".join([f"x{i}" for i in range(n_cols - 1)] + ["y"])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", ",", ", ,", '""', "\x1c"])))
        else:
            width = n_cols + (draw(st.sampled_from([-1, 1])) if kind == 1 and not clean else 0)
            lines.append(",".join(draw(_cells(clean)) for _ in range(max(width, 1))))
    eols = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        eols[-1] = ""
    return "".join(line + eol for line, eol in zip(lines, eols))


class TestCsvParser:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_texts(), response=st.sampled_from(["y", "0"]), intercept=st.booleans())
    @example(text="y\n", response="y", intercept=False)
    @example(text="a,y\r\n1_0,2\r\n", response="y", intercept=False)
    @example(text="a,y\r1,2\r\r3,4\r", response="y", intercept=True)
    @example(text="a,y\n\x1c1,2\n", response="y", intercept=False)
    @example(text='a,y\n"1" ,  2\n , \n"1"2,3\n', response="0", intercept=False)
    @example(text="a,y\n1,2\n#3,4\n", response="y", intercept=False)
    def test_matches_cell_by_cell_reference(self, tmp_path, text, response, intercept):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _parse_outcome(cli._read_csv, path, response, intercept) == \
            _parse_outcome(_read_csv_reference, path, response, intercept)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_texts(), response=st.sampled_from(["y", "0"]), intercept=st.booleans(),
           mode=st.sampled_from(["complete", "partial", "efficient"]),
           kind=st.sampled_from(["gaussian", "hadamard", "clarkson_woodruff"]),
           k=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 3))
    @example(text="x0,y\n1,2\n2,3.5\n3,3\n4,6\n5,4\n", response="y", intercept=True,
             mode="complete", kind="gaussian", k=3, seed=0)
    @example(text='x0,y\n0.0,1.0\n"6.362424904190393e+161","0.0"\n\n\n\n', response="y",
             intercept=False, mode="efficient", kind="gaussian", k=2, seed=0)
    # X^T y of order 1e200: its norm, squared, overflows
    @example(text="x0,x1,y\n3e100,1e100,2e100\n-1e100,2e100,1e100\n2e100,-1e100,3e100\n"
                  "1e100,1e100,-1e100\n-2e100,3e100,2e100\n1e100,-2e100,1e100\n",
             response="y", intercept=False, mode="partial", kind="hadamard", k=5, seed=0)
    # the Gaussian sketch of values near the largest double overflows
    @example(text="x0,y\n1e267,-1.7976931348623157e+308\n-3e14,1e-18\n1e264,2e15\n-7,3.7e80\n",
             response="y", intercept=False, mode="efficient", kind="gaussian", k=2, seed=2)
    # a covariate of order 1e-185: [(Xs'Xs)^{-1}]_00 overflows
    @example(text="x0,y\n5.5612112766892974e-185,0\n0.0,-1.36231e-5\n", response="y",
             intercept=False, mode="complete", kind="gaussian", k=3, seed=2)
    # a sketched response of order 1e308: Q^T y_s overflows
    @example(text="x0,y\n1,1.5e308\n2,1.5e308\n3,-1.5e308\n4,1.5e308\n5,1.5e308\n"
                  "6,-1.5e308\n7,1.5e308\n", response="y", intercept=False,
             mode="complete", kind="clarkson_woodruff", k=5, seed=3)
    def test_infer_exits_with_a_documented_code(self, tmp_path, capsys, text, response,
                                                intercept, mode, kind, k, seed):
        # every outcome of `infer` on any text is a documented exit code
        # with, at most, a one-line diagnostic: never a traceback, nor a
        # numpy warning ahead of it
        path = tmp_path / "fuzz.csv"
        path.write_bytes(text.encode("utf-8"))
        argv = ["infer", "--input", str(path), "--response", response, "--sketch", kind,
                "--k", str(k), "--mode", mode, "--seed", str(seed),
                "--output", str(tmp_path / "fuzz.json")]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + (["--intercept"] if intercept else []))
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in out + err
        assert code == 0 or err.startswith("error: ")

    def test_well_formed_csv_skips_cell_by_cell_parse(self, tmp_path, data_csv, monkeypatch):
        def per_cell(*args):
            raise AssertionError("the per-cell parser ran on a well-formed file")

        rows = np.random.default_rng(5).standard_normal((40, 3))
        padded = tmp_path / "padded.csv"
        padded.write_text("a,b,y\r\n" + "".join(
            f'{a!r},"{b:.17g}" , {c:.17g}\r\n' + ("\r\n" if i % 9 == 0 else "")
            for i, (a, b, c) in enumerate(rows.tolist())), newline="")
        cases = [(data_csv, "y", True), (padded, "b", False)]
        expected = [_parse_outcome(_read_csv_reference, *case) for case in cases]
        monkeypatch.setattr(cli, "_parse_rows", per_cell)
        assert [_parse_outcome(cli._read_csv, *case) for case in cases] == expected
        assert expected[1][0] == "ok" and expected[1][2] == (40, 2)


class TestCsvPathRead:
    """The data rows are read by np.loadtxt from the file's name, in C-level chunks."""

    def _loadtxt_calls(self, monkeypatch):
        calls, real = [], np.loadtxt

        def recording(fname, *args, **kwargs):
            calls.append((fname, kwargs.get("skiprows")))
            return real(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        return calls

    def test_loadtxt_gets_a_path(self, data_csv, monkeypatch):
        # numpy parses an open file one line string at a time
        calls = self._loadtxt_calls(monkeypatch)
        expected = _parse_outcome(_read_csv_reference, data_csv, "y", True)
        assert _parse_outcome(cli._read_csv, data_csv, "y", True) == expected
        assert len(calls) == 1 and isinstance(calls[0][0], str)
        assert calls[0][1] == 1

    def test_header_with_a_quoted_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "quoted.csv"
        path.write_bytes(b'"a\nb",y\r\n1.5,2\r\n-3,4e-3\r\n')
        calls = self._loadtxt_calls(monkeypatch)
        expected = _parse_outcome(_read_csv_reference, path, "y", False)
        assert expected[0] == "ok" and expected[2] == (2, 1)
        assert _parse_outcome(cli._read_csv, path, "y", False) == expected
        assert [skip for _, skip in calls] == [2]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_text_with_a_compression_suffix(self, data_csv, tmp_path, suffix):
        # numpy would pick a decompressor by the name's suffix
        renamed = tmp_path / f"data{suffix}"
        renamed.write_bytes(data_csv.read_bytes())
        assert _parse_outcome(cli._read_csv, renamed, "y", True) == \
            _parse_outcome(cli._read_csv, data_csv, "y", True)

    def test_gzip_file_is_not_utf8(self, data_csv, tmp_path):
        import gzip

        packed = tmp_path / "data.gz"
        packed.write_bytes(gzip.compress(data_csv.read_bytes()))
        outcome = _parse_outcome(cli._read_csv, packed, "y", True)
        assert outcome[:2] == ("error", 2) and "not UTF-8" in outcome[2]

    def test_url_like_relative_name_is_read_locally(self, data_csv, tmp_path, monkeypatch):
        # numpy fetches a name with a scheme and a host from the network
        import urllib.request

        def no_network(*args, **kwargs):
            raise AssertionError("numpy took a local file name for a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "a.csv").write_bytes(data_csv.read_bytes())
        monkeypatch.chdir(tmp_path)
        assert _parse_outcome(cli._read_csv, "http://host/a.csv", "y", False) == \
            _parse_outcome(cli._read_csv, data_csv, "y", False)

    def test_fifo_is_refused_without_blocking(self, tmp_path, capsys):
        import threading

        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        argv = ["fit", "--input", str(fifo), "--response", "y", "--k", "4",
                "--output", str(tmp_path / "o.json")]
        result = []
        worker = threading.Thread(target=lambda: result.append(main(argv)), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "opening the FIFO blocked"
        assert result == [2]
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(fifo) in err and "not a regular file" in err
        assert "Traceback" not in err

    def test_directory_is_refused(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path), "--response", "y", "--k", "4",
                   "--output", str(tmp_path / "o.json")])
        assert rc == 2
        assert "not a regular file" in capsys.readouterr().err
