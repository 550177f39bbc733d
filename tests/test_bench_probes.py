"""The benchmark's set-up probes run against the working tree.

``perfbench/run.py`` times each workload's ``setup_code()`` in a fresh
interpreter; a change to the package that breaks a probe (a renamed function,
a deleted config field) fails every run of that workload.  This runs each
probe once, as ``run.py`` does, so that such a change fails here first.
``perfbench/`` is only read.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_every_workload_has_a_probe(monkeypatch):
    assert set(_workloads(monkeypatch).WORKLOADS) == {
        "sim-sketching", "sim-sampling", "cli-csv", "laws-grid"}


@pytest.mark.parametrize("name", ["sim-sketching", "sim-sampling", "cli-csv", "laws-grid"])
def test_setup_probe_exits_0(monkeypatch, tmp_path, name):
    wl = _workloads(monkeypatch).make(name, 1, tmp_path, True)
    # the prelude run.py's set-up processes use: the package from src/ only
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + wl.setup_code()
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_laws_grid_values_match_their_reference(monkeypatch, tmp_path):
    # the laws-grid workload's own check of its tiny grids (every 16th point
    # of each of the 12 grids, 384 densities) against laws_reference.json:
    # a density change that would fail the benchmark fails here first
    calls = _workloads(monkeypatch).LawsWorkload(1, tmp_path, tiny=True).cycle(0)
    assert len(calls) == 12
    for call in calls:
        vals = call.run()
        assert vals.size == 32
        failed, problems = call.check(vals)
        assert failed == 0, problems
