"""Fresh interpreters: the library and fit/infer load neither scipy.stats nor scipy.integrate."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# prints, after each step, which of the two modules the interpreter has loaded
SCRIPT = """
import json, sys
import numpy as np

def loaded():
    return sorted(m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules)

out = {}
import sketch_infer
out["import"] = loaded()
from sketch_infer import cli

rng = np.random.default_rng(3)
X = rng.standard_normal((80, 3))
y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(80)
path = sys.argv[1] + "/data.csv"
np.savetxt(path, np.column_stack([X, y]), delimiter=",", header="x0,x1,x2,y", comments="")
for command in ("fit", "infer"):
    for mode in ("complete", "partial", "efficient"):
        rc = cli.main([command, "--input", path, "--response", "y", "--k", "20",
                       "--mode", mode, "--output", sys.argv[1] + "/report.json"])
        out[f"{command} {mode}"] = loaded() if rc == 0 else f"exit {rc}"
print(json.dumps(out))
"""


def test_library_and_cli_stay_off_scipy_stats(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(res.stdout.splitlines()[-1])
    assert len(steps) == 7
    assert steps == {step: [] for step in steps}
