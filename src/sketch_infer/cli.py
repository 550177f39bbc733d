"""Command-line front end: fit sketched regressions on CSV data, run inference,
and drive the simulation harness from a config file.

Exit codes: 0 success, otherwise the ``exit_code`` of the package error that
ended the command: 2 parse/validation failure, 3 rank deficiency or an
infeasible sketch size, 4 missing W* byproduct.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import stat
import sys
import warnings

import numpy as np

from .core_model import DataSet
from .errors import NegativeDenominator, SketchInferError, ZeroEstimate
from .estimators import (
    PartialInputs,
    fit_complete,
    fit_efficient_star,
    fit_partial,
)
from .inference import (
    Regime,
    complete_marginal_t_tests,
    partial_linear_combination_test,
    partial_univariate_chi2_test,
    wstar_marginal_t_tests,
)
from .sim_study import (
    SCHEMA,
    SimConfig,
    desk_config,
    paper_config,
    run_repeated_sampling,
    run_repeated_sketching,
    write_csv,
    write_json,
)
from .sketch_ops import SketchKind, SketchSpec, apply_sketch


class _CliError(SketchInferError):
    """An unreadable input file or an invalid option value (exit 2)."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_csv(path: str, response: str, intercept: bool):
    """Parse a headered CSV into (X, y, names); diagnostics name row and column.

    X is filled in one pass (the intercept, then the columns either side of
    the response) and y is copied out, so the parsed block is freed on return.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError as exc:
        raise _CliError(f"cannot open input file: {exc}")
    if not stat.S_ISREG(mode):  # a pipe cannot be read twice, and a FIFO would block
        raise _CliError(f"input file '{path}' is not a regular file")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot open input file: {exc}")
    with fh:
        try:
            header, r_idx, M = _read_table(fh, path, response)
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.start + 1].hex()
            raise _CliError(f"input file is not UTF-8 text: byte 0x{bad} "
                                        f"cannot be decoded ({exc.reason})")
    c = int(intercept)
    X = np.empty((M.shape[0], M.shape[1] - 1 + c))
    X[:, :c] = 1.0
    X[:, c:c + r_idx] = M[:, :r_idx]
    X[:, c + r_idx:] = M[:, r_idx + 1:]
    y = M[:, r_idx].copy()
    names = ["(intercept)"] * c + header[:r_idx] + header[r_idx + 1:]
    return X, y, names


def _read_table(fh, path: str, response: str):
    """(header, response column index, data matrix) of the CSV ``fh`` opened from ``path``."""
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
            raise _CliError(f"response column '{response}' not found; columns are {header}")
        if not 0 <= r_idx < len(header):
            raise _CliError(f"response index {r_idx} outside 0..{len(header) - 1}")
    M = _loadtxt_rows(fh, path, reader.line_num, len(header))
    if M is None:
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        M = _parse_rows(reader, header)
    return header, r_idx, M


# numpy's number parser strips these C0 separators around a cell as
# whitespace; float() rejects them
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# np.loadtxt decompresses a file it opens by name when the name ends in one
# of these; the CLI reads plain text only
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


def _loadtxt_rows(fh, path: str, header_lines: int, n_cols: int):
    """The data rows after the header in one C-level pass over the file ``path``.

    numpy reads a file it opens by name in chunks; from an open file it
    would parse one line string at a time.  ``fh`` is the same file, open
    after its first ``header_lines`` lines; the separator scan reads it to
    its end.
    Returns None whenever the per-cell parser must decide instead: loadtxt
    fails or warns, finds no rows or the wrong column count, or the file
    holds a character that loadtxt and float() read differently.  Every
    file this accepts, ``_parse_rows`` accepts with bit-identical values.
    """
    if os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:
        return None
    # a relative name such as "http://h/a.csv" must not read as a URL to numpy
    local = path if os.path.isabs(path) else os.path.join(os.curdir, path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = np.loadtxt(local, dtype=float, delimiter=",", comments=None, quotechar='"',
                           ndmin=2, skiprows=header_lines, encoding="utf-8")
    except (ValueError, Warning, OSError):  # OSError: numpy reopens the file by name
        return None
    if M.shape[0] == 0 or M.shape[1] != n_cols:
        return None
    while chunk := fh.read(1 << 16):
        if any(c in chunk for c in _SEPARATORS):
            return None
    return M


def _parse_rows(reader, header):
    """Cell-by-cell parse of the data rows; names the row and column of a bad cell."""
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise _CliError(f"row {line_no}: expected {len(header)} fields, found {len(row)}")
        vals = []
        for c_idx, cell in enumerate(row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise _CliError(f"row {line_no}, column '{header[c_idx]}': "
                                f"could not parse {cell.strip()!r} as a number")
        rows.append(vals)
    if not rows:
        raise _CliError("input file contains no data rows")
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _fit_csv(args):
    """Read the CSV, sketch it and fit it in ``args.mode``: (names, data, sketch, fit)."""
    X, y, names = _read_csv(args.input, args.response, args.intercept)
    data = DataSet(X=X, y=y)
    spec = SketchSpec(kind=args.sketch, k=args.k, seed=args.seed)
    sk = apply_sketch(data, spec, want_w_star=(args.mode == "efficient"))
    if args.mode == "complete":
        fit = fit_complete(sk)
    elif args.mode == "partial":
        fit = fit_partial(sk, PartialInputs.of(data))
    else:
        fit = fit_efficient_star(sk)
    return names, data, sk, fit


def _report_head(args, data: DataSet, sk, **after_mode) -> dict:
    """The fields a fit and an infer report open with; ``after_mode`` follows the mode."""
    return {
        "schema": SCHEMA, "command": args.command, "mode": args.mode, **after_mode,
        "sketch": {"kind": sk.spec.kind.value, "k": sk.spec.k, "seed": sk.spec.seed},
        "n": data.n, "p": data.p,
    }


def _write_report(args, report: dict, table: str, csv_header: list) -> int:
    """Write the report to ``args.output`` as JSON, or its ``table`` rows as CSV
    with the columns ``csv_header`` names; exit 0."""
    try:
        if args.format == "json":
            write_json(args.output, report)
        else:
            write_csv(args.output, csv_header,
                      ([row[h] for h in csv_header] for row in report[table]))
    except OSError as exc:  # a missing directory, or a directory or file in the way
        raise _CliError(f"cannot write output file: {exc}")
    return 0


def cmd_fit(args) -> int:
    names, data, sk, fit = _fit_csv(args)
    report = {
        **_report_head(args, data, sk),
        "estimates": [
            {"index": i, "name": names[i], "estimate": float(b)} for i, b in enumerate(fit.beta)
        ],
        "ssr_s": fit.SSR_s,
        "ssm_p": fit.SSM_p,
        "gamma": fit.gamma,
    }
    return _write_report(args, report, "estimates", ["index", "name", "estimate"])


def _parse_nulls(spec: str, p: int):
    if spec is None:
        return np.zeros(p)
    parts = [s.strip() for s in spec.split(",")]
    try:
        vals = [float(s) for s in parts]
    except ValueError:
        raise _CliError(f"could not parse null values '{spec}'")
    if not np.isfinite(vals).all():  # a NaN null gives a NaN statistic
        raise _CliError(f"null values must be finite, got '{spec}'")
    if len(vals) == 1:
        return np.full(p, vals[0])
    if len(vals) != p:
        raise _CliError(f"expected 1 or {p} null values, got {len(vals)}")
    return np.asarray(vals)


_INFER_CSV_HEADER = ["index", "name", "estimate", "statistic", "p_value",
                     "ci_lower", "ci_upper", "flag"]


def _coef_row(j: int, name: str, estimate, null, test=None, ci=None, flag=None) -> dict:
    """One coefficient of an infer report; a missing test or interval reports None."""
    return {
        "index": j, "name": name, "estimate": float(estimate), "null_value": float(null),
        "statistic": None if test is None else test.statistic,
        "pivot": None if test is None else str(test.pivot_law),
        "p_value": None if test is None else test.p_value,
        "ci_lower": None if ci is None else ci.lower,
        "ci_upper": None if ci is None else ci.upper,
        "flag": flag,
    }


def cmd_infer(args) -> int:
    if not 0.0 < args.alpha < 1.0:  # NaN fails too
        raise _CliError(f"--alpha must be in (0, 1), got {args.alpha}")
    names, data, sk, fit = _fit_csv(args)
    nulls = _parse_nulls(args.null, data.p)
    level = 1.0 - args.alpha
    k, p = args.k, data.p

    if args.mode == "partial":
        coefficients = []
        for j in range(p):
            test, flag = None, None
            if p == 1:
                try:
                    test = partial_univariate_chi2_test(fit, float(nulls[j]), k)
                except ZeroEstimate:
                    flag = "partial estimate is exactly zero"
            elif nulls[j] != 0.0:
                flag = "only the zero null is supported for partial coefficients"
            else:
                try:
                    test = partial_linear_combination_test(fit, sk, np.eye(p)[j])
                except NegativeDenominator as exc:
                    flag = f"negative denominator: {exc}"
            coefficients.append(_coef_row(j, names[j], fit.beta[j], nulls[j], test, flag=flag))
    else:
        if args.mode == "complete":
            pairs = complete_marginal_t_tests(fit, sk, nulls, level)
        else:  # efficient: classical inference on the whitened system, exact given S
            # an overflow here is reported by the W* tests as NonFinite
            with np.errstate(over="ignore", invalid="ignore"):
                e_full = data.y - data.X @ nulls
                yty = float(e_full @ e_full)
            pairs = wstar_marginal_t_tests(fit, sk, yty, nulls, level)
        coefficients = [_coef_row(j, names[j], fit.beta[j], nulls[j], t, ci)
                        for j, (t, ci) in enumerate(pairs)]

    report = {**_report_head(args, data, sk, alpha=args.alpha), "coefficients": coefficients}
    return _write_report(args, report, "coefficients", _INFER_CSV_HEADER)


def _load_sim_config(args) -> SimConfig:
    """The preset's or the config file's design, with ``--m`` and ``--seed`` applied."""
    regime = Regime.REPEATED_SAMPLE if args.regime == "sampling" else Regime.REPEATED_SKETCH
    if args.preset is not None:
        cfg = (paper_config if args.preset == "paper" else desk_config)(regime)
    elif args.config is None:
        raise _CliError("simulate needs --config or --preset")
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config: {exc}")
        if not isinstance(raw, dict):
            kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
            raise _CliError(f"invalid simulation config: expected a JSON object, got "
                            f"{kind.get(type(raw), 'a number')}")
        raw.setdefault("regime", regime.value)
        if args.regime is not None and raw["regime"] != regime.value:
            raise _CliError(f"--regime {args.regime} conflicts with the config's regime "
                            f"{raw['regime']!r}")
        try:
            cfg = SimConfig(**raw)
        except (TypeError, ValueError) as exc:  # a bad key, or a bad value (DomainError)
            raise _CliError(f"invalid simulation config: {exc}")
    overrides = (("m", args.m), ("root_seed", args.seed))
    return dataclasses.replace(cfg, **{f: v for f, v in overrides if v is not None})


def cmd_simulate(args) -> int:
    cfg = _load_sim_config(args)
    runner = (
        run_repeated_sketching
        if cfg.regime is Regime.REPEATED_SKETCH
        else run_repeated_sampling
    )
    try:  # before the run, so that a bad path costs no replicate
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create output directory: {exc}")
    report = runner(cfg)
    report.write_json(os.path.join(args.output_dir, "report.json"))
    report.write_csvs(args.output_dir)
    for line in report.summary_lines():
        print(line)
    workers = f"{report.workers} worker{'s' if report.workers > 1 else ''}"
    print(f"runtime: {report.runtime_seconds:.1f} s on {workers}; outputs in {args.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_data_args(sp) -> None:
    sp.add_argument("--input", required=True, help="CSV file with a header row")
    sp.add_argument("--response", required=True,
                    help="response column, by name or 0-based index")
    sp.add_argument("--intercept", action="store_true",
                    help="prepend a column of ones to the covariates")
    sp.add_argument("--sketch", default="gaussian",
                    choices=[s.value for s in SketchKind])
    sp.add_argument("--k", type=int, required=True, help="sketch size")
    sp.add_argument("--mode", default="complete",
                    choices=["complete", "partial", "efficient"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", required=True, help="report file to write")
    sp.add_argument("--format", default="json", choices=["json", "csv"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sketch-infer",
        description="Sketched least-squares regression with statistical inference",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp_fit = sub.add_parser("fit", help="fit a sketched regression on CSV data")
    _add_data_args(sp_fit)
    sp_fit.set_defaults(func=cmd_fit)

    sp_inf = sub.add_parser("infer", help="fit and run per-coefficient inference")
    _add_data_args(sp_inf)
    sp_inf.add_argument("--alpha", type=float, default=0.05,
                        help="test size; intervals are reported at level 1 - alpha")
    sp_inf.add_argument("--null", default=None,
                        help="comma-separated null values (one value broadcasts; default 0)")
    sp_inf.set_defaults(func=cmd_infer)

    sp_sim = sub.add_parser("simulate", help="run the Monte-Carlo calibration study")
    design = sp_sim.add_mutually_exclusive_group()
    design.add_argument("--config", default=None, help="JSON file with the design")
    design.add_argument("--preset", default=None, choices=["paper", "desk"],
                        help="built-in design (n=10^4 reference or n=2000 desk scale)")
    sp_sim.add_argument("--regime", default=None, choices=["sketching", "sampling"],
                        help="default sketching; must agree with a config file's regime")
    sp_sim.add_argument("--m", type=int, default=None, help="override replicate count")
    sp_sim.add_argument("--seed", type=int, default=None, help="override root seed")
    sp_sim.add_argument("--output-dir", required=True)
    sp_sim.set_defaults(func=cmd_simulate)
    return ap


def _attach_negative_nulls(argv: list) -> list:
    """Glue a null list that starts with a minus sign to its ``--null``.

    argparse takes "-1,2" for an option string (it is not a plain negative
    number), so ``--null -1,2`` becomes ``--null=-1,2``, its one reading.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--null" and re.match(r"-\.?\d", tok):
            out[-1] = f"--null={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_negative_nulls(argv))
    try:
        return args.func(args)
    except SketchInferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
