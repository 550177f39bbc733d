"""The package stays off scipy.stats and scipy.integrate: no module imports
either, and fresh interpreters running the library, fit/infer and the
harness load neither."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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

# the harness, KS tests and overlays included, at n = 200 with all three kinds
from sketch_infer.inference import Regime
from sketch_infer.sim_study import SimConfig, run_repeated_sampling, run_repeated_sketching

for regime, run in ((Regime.REPEATED_SKETCH, run_repeated_sketching),
                    (Regime.REPEATED_SAMPLE, run_repeated_sampling)):
    cfg = SimConfig(n=200, p=11, k=21, m=2, beta0=np.arange(-5.0, 6.0), sigma2=1.0,
                    sketch_kinds=("gaussian", "hadamard", "clarkson_woodruff"), regime=regime,
                    targets=(0, 5), root_seed=1)
    rep = run(cfg)
    ran = (any(t.ks_statistic is not None for t in rep.tables)
           and rep.tables[-1].overlay_pdf is not None)
    out[run.__name__] = loaded() if ran else "no KS test or overlay"
print(json.dumps(out))
"""


def test_library_and_cli_stay_off_scipy_stats(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(res.stdout.splitlines()[-1])
    assert len(steps) == 9
    assert steps == {step: [] for step in steps}


def _imports_scipy(node, module: str = "stats") -> bool:
    """Whether an ast node is an import of scipy.<module> or of a name inside it."""
    def inside(name):
        return name == f"scipy.{module}" or name.startswith(f"scipy.{module}.")

    if isinstance(node, ast.Import):
        return any(inside(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return inside(node.module) or (
            node.module == "scipy" and any(alias.name == module for alias in node.names))
    return False


@pytest.mark.parametrize("code,found", [
    ("from scipy import stats", True),
    ("import scipy.stats as st", True),
    ("from scipy.stats import norm", True),
    ("from scipy.stats._distn_infrastructure import rv_continuous", True),
    ("from scipy import special, stats", True),
    ("def f():\n    from scipy import stats\n    return stats", True),
    ("from scipy import special", False),
    ("import scipy.special", False),
    ("from .special_fn import student_t", False),
])
def test_guard_sees_every_import_form(code, found):
    assert any(map(_imports_scipy, ast.walk(ast.parse(code)))) is found


@pytest.mark.parametrize("code,found", [
    ("from scipy import integrate", True),
    ("import scipy.integrate", True),
    ("from scipy.integrate import quad", True),
    ("from scipy import special, integrate", True),
    ("def f(g):\n    from scipy import integrate\n    return integrate.quad(g, 0, 1)", True),
    ("from scipy import stats", False),
    ("from .densities import ratio_beta_law_pdf", False),
])
def test_guard_sees_every_integrate_import_form(code, found):
    assert any(_imports_scipy(node, "integrate") for node in ast.walk(ast.parse(code))) is found


def _offenders(module: str) -> list:
    # function-local imports included: ast.walk reaches every nested node
    return [f"{path.name}:{node.lineno}"
            for path in sorted((SRC / "sketch_infer").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _imports_scipy(node, module)]


def test_no_module_imports_scipy_stats():
    assert _offenders("stats") == []


def test_no_module_imports_scipy_integrate():
    assert _offenders("integrate") == []
