"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
        [--workloads NAME ...] [--traced] [--out FILE]

Runs every workload of BENCHMARK.json once per seed with --trace 0 and
reports, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median, next to the metric's bound.  With --traced it adds one
traced run per workload and its per-layer table.  The summary is printed and,
with --out, written as JSON; perfbench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-3000:]}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return {"result": result, "provenance": prov}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for wl in args.workloads:
        runs = [run_once(wl, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "provenance": runs[0]["provenance"], "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": values,
            }
            flag = "" if (q3 - q1) / med < m["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"{wl:14s} {m['name']:12s} median {med:.6g} {m['unit']}  "
                  f"q1 {q1:.6g} q3 {q3:.6g}  spread {(q3 - q1) / med:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        if args.traced:
            traced = run_once(wl, seeds[-1] + 1, seconds, 1)
            entry["per_layer"] = {
                name: m["value"] for name, m in traced["result"]["metrics"].items()
            }
            entry["per_layer_seed"] = seeds[-1] + 1
        summary["workloads"][wl] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
