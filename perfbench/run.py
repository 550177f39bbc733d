"""sketch-infer benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
metric names, units and bounds are in ``BENCHMARK.json``; the lines before
the last one repeat every metric by name with its unit, plus the error rate,
the provenance block and any failed check.  A JSON record of the run goes to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 3
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, but not bounded: a p50/p90 over a mixture of call
# kinds (or a handful of multi-second harness calls) is too jumpy to bound
REPORTED_UNITS = {"call_p50_s": "s", "call_p90_s": "s", "error_rate": "ratio"}
THREAD_VARS = ("SKETCH_INFER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs and one set-up sample (self-test only)")
    return ap.parse_args(argv)


def import_package():
    """Import sketch_infer from this checkout's src/, never from elsewhere."""
    if not (SRC / "sketch_infer" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'sketch_infer'}; "
                 "run from the root of a sketch-infer checkout")
    sys.path.insert(0, str(SRC))
    import sketch_infer

    if Path(sketch_infer.__file__).resolve().parent != (SRC / "sketch_infer").resolve():
        sys.exit(f"error: sketch_infer imported from {sketch_infer.__file__}, not {SRC}")
    return sketch_infer


def provenance(package, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {})
        return {lib: {key: deps.get(lib, {}).get(key)
                      for key in ("name", "version", "openblas configuration")}
                for lib in ("blas", "lapack")}

    digest = hashlib.sha256()
    for path in sorted((SRC / "sketch_infer").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "package": "sketch-infer",
        "version": package.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain source tree; src_sha256 identifies the code
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _timed_process(code: str) -> float:
    """Run ``code`` in a fresh interpreter with src/ on its path; returns the
    seconds from just before its first import to the end of ``code``."""
    prelude = "import sys, time\nt0 = time.perf_counter()\nsys.path.insert(0, sys.argv[1])\n"
    coda = "\nprint(repr(time.perf_counter() - t0))\n"
    res = subprocess.run(
        [sys.executable, "-c", prelude + code + coda, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{res.stderr}")
    return float(res.stdout.strip().splitlines()[-1])


def measure_setup(code: str, repeats: int, reference_code: str, reference_s: float) -> tuple:
    """Seconds to import sketch_infer and finish a warm-up call, each in a
    fresh interpreter.

    Each set-up process is bracketed by runs of a reference process that
    imports numpy and scipy but not the package; a set-up time divided by
    the mean of its two reference times and multiplied by ``reference_s``
    is in reference-host seconds.  Returns the raw set-up times, the
    reference times and the normalized set-up times.
    """
    refs = [_timed_process(reference_code)]
    times, normalized = [], []
    for _ in range(repeats):
        times.append(_timed_process(code))
        refs.append(_timed_process(reference_code))
        normalized.append(times[-1] / ((refs[-2] + refs[-1]) / 2.0) * reference_s)
    return times, refs, normalized


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.call_s = []
        self.call_norm_s = []
        self.ops = 0
        self.busy_s = 0.0
        self.busy_norm_s = 0.0
        self.cycles = 0

    def fail(self, attempts: int, messages) -> None:
        self.failed += attempts
        self.problems.extend(messages)


def run_cycle(wl, i: int, tally: Tally, tracer=None, keep_fingerprints=False, probe=None):
    """Run one cycle; returns (seconds spent in calls, fingerprints).

    With a host probe, the probe samples after each call, and the call's time
    divided by the mean slowdown of the samples just before and after it is
    its time in reference-host seconds."""
    busy = 0.0
    ops = 0
    prints = []
    for call in wl.cycle(i):
        tally.attempted += call.attempts
        root = tracer.root(wl.root) if tracer else contextlib.nullcontext()
        try:
            with root:
                t0 = perf_counter()
                out = call.run()
                dt = perf_counter() - t0
        except Exception:  # the benchmark keeps going and counts the failure
            tally.fail(call.attempts, [traceback.format_exc()])
            prints.append(None)
            continue
        norm = dt
        if probe is not None:
            before = probe.samples[-1]
            norm = dt / ((before + probe.sample(dt)) / 2.0)
        busy += dt
        ops += call.ops
        tally.call_s.append(dt)
        tally.call_norm_s.append(norm)
        tally.busy_norm_s += norm
        try:
            n_bad, messages = call.check(out)
            prints.append(call.fingerprint(out) if keep_fingerprints else None)
        except Exception:  # a check that cannot run on this output is a failed check
            n_bad, messages = call.attempts, [traceback.format_exc()]
            prints.append(None)
        if n_bad:
            tally.fail(n_bad, messages)
    tally.ops += ops
    tally.busy_s += busy
    tally.cycles += 1
    return busy, prints


def measure(wl, seconds: float, tracer, package_modules, probe) -> tuple:
    """Run whole cycles until ``seconds`` of wall time have passed.

    With a tracer, cycle 0 runs first untraced and then traced on the same
    inputs: the outputs must be identical (the wrappers change nothing) and
    the time difference is the tracing overhead.
    """
    tally = Tally()
    overhead = untraced = 0.0
    t_start = perf_counter()
    i = 0
    if tracer is not None:
        untraced, ref_prints = run_cycle(wl, 0, tally, None, keep_fingerprints=True)
        tally.call_s.clear()
        tally.call_norm_s.clear()
        tally.cycles = 0
        with tracer.installed(package_modules):
            traced, prints = run_cycle(wl, 0, tally, tracer, keep_fingerprints=True)
            overhead = traced - untraced
            if prints != ref_prints:
                tally.fail(1, ["transparency: traced outputs differ from untraced outputs"])
            i = 1
            while perf_counter() - t_start < seconds:
                run_cycle(wl, i, tally, tracer)
                i += 1
    else:
        if probe is not None:
            probe.sample(4.0)  # the first call's "before" sample
        while i == 0 or perf_counter() - t_start < seconds:
            run_cycle(wl, i, tally, probe=probe)
            i += 1
    return tally, overhead, untraced


def settle_allocator() -> None:
    """Free one 16 MiB block before timing.

    glibc serves blocks above its mmap threshold with fresh zeroed pages and
    raises the threshold to the size of the largest such block freed so far
    (up to 32 MiB).  Left alone, the threshold moves whenever some call, or
    one of the benchmark's checks, first frees a larger block, and the calls
    before that pay for the page faults: on sim-sampling ~30% slower and
    several times noisier on a 2-vCPU VM.  Freeing a 16 MiB block first puts
    every timed call in the same state.
    """
    import numpy as np

    np.ones(2 << 20).sum()


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    # replicates run serially (the package's default) and BLAS on one thread,
    # set before numpy loads and inherited by the set-up processes: on a
    # shared 2-vCPU host a second BLAS thread waits on whatever else runs
    # there, and a harness run's rate spread by 8-33% between runs with it
    os.environ.pop("SKETCH_INFER_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    package = import_package()
    sys.path.insert(0, str(HERE))
    import probe as host_probe
    import tracing
    import workloads
    from sketch_infer import cli, densities, errors, inference, sim_study

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.make(args.workload, args.seed, workdir, args.tiny)
        prov = provenance(package, args.workload, args.seed)
        kernels = host_probe.Kernels()
        setup = setup_refs = setup_norm = []
        if not args.trace:
            setup, setup_refs, setup_norm = measure_setup(
                wl.setup_code(), 1 if args.tiny else SETUP_REPEATS,
                host_probe.REFERENCE_PROCESS, host_probe.REFERENCE_PROCESS_S)
        wl.warmup()
        settle_allocator()
        tracer = tracing.Tracer() if args.trace else None
        probe = None
        if not args.trace:
            probe = host_probe.HostProbe(kernels, wl.probe_kind)
        modules = {"cli": cli, "densities": densities, "errors": errors,
                   "inference": inference, "sim_study": sim_study}
        tally, overhead, untraced = measure(wl, args.seconds, tracer, modules, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = {}
    if args.trace:
        values = tracer.layer_metrics(overhead, untraced)
        units = dict(tracing.per_layer_spec())
    else:
        # raw wall-clock figures, and the bounded metrics in reference-host
        # units: each call's time divided by the probe's slowdown around it
        slowdown = tally.busy_s / tally.busy_norm_s if tally.busy_norm_s else 1.0
        raw = {
            "ops_per_s": tally.ops / tally.busy_s if tally.busy_s else 0.0,
            "call_p50_s": percentile(tally.call_s, 50),
            "call_p90_s": percentile(tally.call_s, 90),
            "setup_s": statistics.median(setup),
            "host_slowdown": slowdown,
        }
        values = {
            "ops_per_s": tally.ops / tally.busy_norm_s if tally.busy_norm_s else 0.0,
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "call_p50_s": percentile(tally.call_norm_s, 50),
            "call_p90_s": percentile(tally.call_norm_s, 90),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    reported = {}
    if not args.trace:
        values["error_rate"] = error_rate
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in REPORTED_UNITS.items()}
    record = {
        "provenance": prov,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "calls": len(tally.call_s),
        "call_s": tally.call_s[:1000],
        "cycles": tally.cycles,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": error_rate,
        "setup_samples_s": setup,
        "setup_reference_s": setup_refs,
        "probe_samples": probe.samples if probe else [],
        "metrics": metrics,
        "reported": reported,
        "raw": raw,
        "problems": tally.problems[:50],
    }
    if args.trace:
        record["accounting"] = tracer.accounting()
        record["untraced_cycle_s"] = untraced
        record["skipped_wrappers"] = tracer.skipped
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(
            {"provenance": prov, "fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans}))

    print("provenance " + json.dumps(prov, sort_keys=True))
    for problem in tally.problems[:20]:
        print("FAILED CHECK " + problem.strip().replace("\n", "\n    "))
    print(f"{args.workload}: {record['calls']} calls in {record['cycles']} cycles, "
          f"{tally.failed} of {tally.attempted} attempts failed")
    for name, m in {**metrics, **reported}.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        unit = {"ops_per_s": "1/s", "host_slowdown": "x"}.get(name, "s")
        print(f"{'raw ' + name:48s} {value:.6g} {unit}")
    if args.trace:
        for root, acc in record["accounting"].items():
            covered = sum(acc["children_busy_s"].values())
            print(f"accounting {root}: wall {acc['wall_s']:.4f} s = children {covered:.4f} s "
                  f"+ self {acc['self_s']:.4f} s; tracing overhead on cycle 0 "
                  f"{overhead:+.4f} s of {untraced:.4f} s untraced")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
