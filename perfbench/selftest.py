"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json at tiny size, untraced and traced, and
checks that the last stdout line is a correct result carrying every named
metric with its unit.  Then checks that the benchmark refuses to run, with a
non-zero exit and no result, in a tree that holds only the benchmark and not
the package source.  Takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int, extra=("--tiny",)):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(errors)
            res = run(ROOT, wl["name"], trace)
            where = f"{wl['name']} --trace {trace}"
            if res.returncode != 0:
                errors.append(f"{where}: exit {res.returncode}\n{res.stderr[-2000:]}")
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{where}: not correct:\n{res.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ from BENCHMARK.json {key}: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {[n for n in want if n in got and got[n] != want[n]]}")
            print(("ok " if len(errors) == before else "FAIL ") + where)

    bare = HERE / "_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        res = run(bare, spec["workloads"][0]["name"], 0, extra=())
        if res.returncode == 0 or '"metrics"' in res.stdout:
            errors.append("benchmark ran without the package source")
        else:
            print("ok refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
