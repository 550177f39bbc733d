"""Command-line front end: fit sketched regressions on CSV data, run inference,
and drive the simulation harness from a config file.

Exit codes: 0 success, 2 parse/validation failure, 3 rank deficiency or an
infeasible sketch size, 4 missing W* byproduct.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import warnings

import numpy as np

from .core_model import DataSet
from .errors import (
    DomainError,
    GammaNonpositive,
    MissingWStar,
    NegativeDenominator,
    NonFinite,
    RankDeficient,
    SketchInferError,
    ZeroEstimate,
)
from .estimators import (
    PartialInputs,
    fit_complete,
    fit_efficient_star,
    fit_partial,
)
from .inference import (
    Regime,
    complete_marginal_ci,
    complete_marginal_t_test,
    partial_marginal_t_test,
    partial_univariate_chi2_test,
    wstar_marginal_t_tests,
)
from .sim_study import (
    SimConfig,
    desk_config,
    json_text,
    paper_config,
    run_repeated_sampling,
    run_repeated_sketching,
)
from .sketch_ops import SketchKind, SketchSpec, apply_sketch

SCHEMA = "sketch-infer/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RANK = 3
EXIT_WSTAR = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_csv(path: str, response: str, intercept: bool):
    """Parse a headered CSV into (X, y, names); diagnostics name row and column."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot open input file: {exc}")
    with fh:
        try:
            header, r_idx, M = _read_table(fh, response)
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start:exc.start + 1].hex()
            raise _CliError(EXIT_INPUT, f"input file is not UTF-8 text: byte 0x{bad} "
                                        f"cannot be decoded ({exc.reason})")
    y = M[:, r_idx]
    X = np.delete(M, r_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != r_idx]
    if intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
        names = ["(intercept)"] + names
    return X, y, names


def _read_table(fh, response: str):
    """(header, response column index, data matrix) of an open CSV file."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise _CliError(EXIT_INPUT, "input file is empty (a header row is required)")
    header = [h.strip() for h in header]
    if response in header:
        r_idx = header.index(response)
    else:
        try:
            r_idx = int(response)
        except ValueError:
            raise _CliError(
                EXIT_INPUT,
                f"response column '{response}' not found; columns are {header}",
            )
        if not 0 <= r_idx < len(header):
            raise _CliError(EXIT_INPUT, f"response index {r_idx} outside 0..{len(header) - 1}")
    M = _loadtxt_rows(fh, len(header))
    if M is None:
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        M = _parse_rows(reader, header)
    return header, r_idx, M


# numpy's number parser strips these C0 separators around a cell as
# whitespace; float() rejects them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _loadtxt_rows(fh, n_cols: int):
    """The data rows after the header in one C-level pass, streamed from ``fh``.

    Returns None whenever the per-cell parser must decide instead: loadtxt
    fails or warns, finds no rows or the wrong column count, or the file
    holds a character that loadtxt and float() read differently.  Every
    file this accepts, ``_parse_rows`` accepts with bit-identical values.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            M = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                           quotechar='"', ndmin=2)
    except (ValueError, Warning):
        return None
    if M.shape[0] == 0 or M.shape[1] != n_cols:
        return None
    fh.seek(0)
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
            raise _CliError(
                EXIT_INPUT,
                f"row {line_no}: expected {len(header)} fields, found {len(row)}",
            )
        vals = []
        for c_idx, cell in enumerate(row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise _CliError(
                    EXIT_INPUT,
                    f"row {line_no}, column '{header[c_idx]}': "
                    f"could not parse {cell.strip()!r} as a number",
                )
        rows.append(vals)
    if not rows:
        raise _CliError(EXIT_INPUT, "input file contains no data rows")
    return np.asarray(rows, dtype=float)


def _build_dataset(X, y) -> DataSet:
    try:
        return DataSet(X=X, y=y)
    except RankDeficient as exc:
        raise _CliError(EXIT_RANK, str(exc))
    except (NonFinite, DomainError) as exc:
        raise _CliError(EXIT_INPUT, str(exc))


def _sketch(data: DataSet, args, want_w_star: bool):
    if args.k <= data.p:
        raise _CliError(
            EXIT_RANK,
            f"sketch size k={args.k} violates the k > p requirement (p={data.p})",
        )
    if want_w_star and args.k > data.n:
        raise _CliError(
            EXIT_WSTAR,
            f"the W* byproduct is unavailable for k={args.k} > n={data.n}, "
            "so the efficient mode cannot run",
        )
    spec = SketchSpec(kind=SketchKind(args.sketch), k=args.k, seed=args.seed)
    try:
        return apply_sketch(data, spec, want_w_star=want_w_star)
    except DomainError as exc:
        raise _CliError(EXIT_INPUT, str(exc))


def _fit(mode: str, data: DataSet, sk):
    try:
        if mode == "complete":
            return fit_complete(sk)
        if mode == "partial":
            return fit_partial(sk, PartialInputs(Xty=data.X.T @ data.y, yty=float(data.y @ data.y)))
        if mode == "efficient":
            return fit_efficient_star(sk)
    except MissingWStar as exc:
        raise _CliError(EXIT_WSTAR, str(exc))
    except (RankDeficient, GammaNonpositive) as exc:
        raise _CliError(EXIT_RANK, str(exc))
    raise _CliError(EXIT_INPUT, f"unknown mode '{mode}'")


def _write_report(report: dict, path: str, fmt: str, csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        text = json_text(report)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    X, y, names = _read_csv(args.input, args.response, args.intercept)
    data = _build_dataset(X, y)
    sk = _sketch(data, args, want_w_star=(args.mode == "efficient"))
    fit = _fit(args.mode, data, sk)
    report = {
        "schema": SCHEMA,
        "command": "fit",
        "mode": args.mode,
        "sketch": {"kind": sk.spec.kind.value, "k": sk.spec.k, "seed": sk.spec.seed},
        "n": data.n,
        "p": data.p,
        "estimates": [
            {"index": i, "name": names[i], "estimate": float(b)} for i, b in enumerate(fit.beta)
        ],
        "ssr_s": fit.SSR_s,
        "ssm_p": fit.SSM_p,
        "gamma": fit.gamma,
    }
    rows = [[i, names[i], repr(float(b))] for i, b in enumerate(fit.beta)]
    _write_report(report, args.output, args.format, rows, ["index", "name", "estimate"])
    return EXIT_OK


def _parse_nulls(spec: str, p: int):
    if spec is None:
        return np.zeros(p)
    parts = [s.strip() for s in spec.split(",")]
    try:
        vals = [float(s) for s in parts]
    except ValueError:
        raise _CliError(EXIT_INPUT, f"could not parse null values '{spec}'")
    if len(vals) == 1:
        return np.full(p, vals[0])
    if len(vals) != p:
        raise _CliError(EXIT_INPUT, f"expected 1 or {p} null values, got {len(vals)}")
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
    X, y, names = _read_csv(args.input, args.response, args.intercept)
    data = _build_dataset(X, y)
    sk = _sketch(data, args, want_w_star=(args.mode == "efficient"))
    fit = _fit(args.mode, data, sk)
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
                    test = partial_marginal_t_test(fit, sk, j, Regime.REPEATED_SKETCH)
                except NegativeDenominator as exc:
                    flag = f"negative denominator: {exc}"
            coefficients.append(_coef_row(j, names[j], fit.beta[j], nulls[j], test, flag=flag))
    else:
        if args.mode == "complete":
            pairs = [(complete_marginal_t_test(fit, sk, j, float(nulls[j])),
                      complete_marginal_ci(fit, sk, j, level)) for j in range(p)]
        else:  # efficient: classical inference on the whitened system, exact given S
            e_full = data.y - data.X @ nulls
            pairs = wstar_marginal_t_tests(fit, sk, float(e_full @ e_full), nulls, level)
        coefficients = [_coef_row(j, names[j], fit.beta[j], nulls[j], t, ci)
                        for j, (t, ci) in enumerate(pairs)]

    report = {
        "schema": SCHEMA,
        "command": "infer",
        "mode": args.mode,
        "alpha": args.alpha,
        "sketch": {"kind": sk.spec.kind.value, "k": sk.spec.k, "seed": sk.spec.seed},
        "n": data.n,
        "p": p,
        "coefficients": coefficients,
    }
    rows = [[c[h] for h in _INFER_CSV_HEADER] for c in coefficients]
    _write_report(report, args.output, args.format, rows, _INFER_CSV_HEADER)
    return EXIT_OK


def _load_sim_config(args) -> SimConfig:
    regime = Regime.REPEATED_SKETCH if args.regime == "sketching" else Regime.REPEATED_SAMPLE
    if args.preset is not None:
        maker = paper_config if args.preset == "paper" else desk_config
        cfg = maker(regime)
        overrides = {}
        if args.m is not None:
            overrides["m"] = args.m
        if args.seed is not None:
            overrides["root_seed"] = args.seed
        if overrides:
            d = cfg.to_jsonable()
            d.update(overrides)
            d["regime"] = regime
            cfg = SimConfig(**d)
        return cfg
    if args.config is None:
        raise _CliError(EXIT_INPUT, "simulate needs --config or --preset")
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(EXIT_INPUT, f"cannot read config: {exc}")
    raw.setdefault("regime", regime.value)
    try:
        return SimConfig(**raw)
    except (TypeError, DomainError, ValueError) as exc:
        valid = ", ".join(s.value for s in SketchKind)
        raise _CliError(EXIT_INPUT, f"invalid simulation config: {exc} (valid sketches: {valid})")


def cmd_simulate(args) -> int:
    cfg = _load_sim_config(args)
    runner = (
        run_repeated_sketching
        if cfg.regime is Regime.REPEATED_SKETCH
        else run_repeated_sampling
    )
    report = runner(cfg)
    os.makedirs(args.output_dir, exist_ok=True)
    report.write_json(os.path.join(args.output_dir, "report.json"))
    report.write_csvs(args.output_dir)
    for line in report.summary_lines():
        print(line)
    workers = f"{report.workers} worker{'s' if report.workers > 1 else ''}"
    print(f"runtime: {report.runtime_seconds:.1f} s on {workers}; outputs in {args.output_dir}")
    return EXIT_OK


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
    sp_sim.add_argument("--config", default=None, help="JSON file with the design")
    sp_sim.add_argument("--preset", default=None, choices=["paper", "desk"],
                        help="built-in design (n=10^4 reference or n=2000 desk scale)")
    sp_sim.add_argument("--regime", default="sketching", choices=["sketching", "sampling"])
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
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SketchInferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
