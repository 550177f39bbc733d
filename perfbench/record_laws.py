"""Record the density values that the laws-grid workload checks against.

    python3 perfbench/record_laws.py

Writes perfbench/laws_reference.json from the package in src/.  The file
holds the values of the commit that defined the benchmark; re-record it only
when a change to a law is intended, and say so with the change.
"""

import json
import sys

from run import import_package

import_package()
import workloads  # noqa: E402  (needs the package on sys.path)


def main() -> int:
    values = {g.key: [float(v) for v in workloads.evaluate_grid(g, range(len(g.points)))]
              for g in workloads.law_grids()}
    workloads.LAWS_REFERENCE.write_text(json.dumps(
        {"points": workloads.GRID_POINTS, "values": values}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
