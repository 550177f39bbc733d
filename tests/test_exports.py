"""Every name a sketch_infer module lists in ``__all__`` resolves on that
module, and every name the package exports has a use."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import sketch_infer

MODULES = sorted(f"sketch_infer.{info.name}" for info in pkgutil.iter_modules(sketch_infer.__path__))
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_export_lists_found():
    assert {"sketch_infer.densities", "sketch_infer.inference",
            "sketch_infer.sim_study", "sketch_infer.special_fn"} <= set(EXPORTING)


@pytest.mark.parametrize("module_name", EXPORTING)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


# Static guard: every name the package exports has a caller in a module of
# src/ other than __init__, or is named by the acceptance contract
# (tests/test_acceptance.py), or is listed here with the reason it stays.
ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketch_infer"
UNCALLED_EXPORTS = {
    # the paper's exact joint pivots: nothing in src/ runs them yet (an infer
    # report block would), and the contract names only their marginal siblings
    "complete_joint_f_test": "exact joint F pivot of beta_F over repeated sketches",
    "complete_sampling_joint_test": "exact joint pivot of beta_0 over repeated samples",
    # public laws that the tests check against draws and quadrature
    "mvt_pdf": "density of the exact repeated-sketching law of beta_s",
    "ratio_beta_law_pdf": "density behind complete_sampling_joint_test's p-value",
}


def _used_names(path: pathlib.Path) -> set:
    """Every identifier a module reads, as a bare name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _package_exports() -> set:
    """The names ``sketch_infer/__init__.py`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _uncalled_exports() -> set:
    called = set().union(*(_used_names(path) for path in PACKAGE.glob("*.py")
                           if path.name != "__init__.py"))
    contract = _used_names(ROOT / "tests" / "test_acceptance.py")
    return _package_exports() - called - contract


def test_every_export_has_a_caller_or_a_reason():
    assert _uncalled_exports() == set(UNCALLED_EXPORTS)


@pytest.mark.parametrize("code,names", [
    ("f(x)", {"f", "x"}),
    ("si.kummer_u(1, 2, 3)", {"si", "kummer_u"}),
    ("from .densities import mvt_pdf", set()),
    ('"""mvt_pdf in a docstring"""', set()),
    ("def mvt_pdf(b):\n    return b", {"b"}),
])
def test_guard_counts_reads_not_definitions(tmp_path, code, names):
    path = tmp_path / "module.py"
    path.write_text(code, encoding="utf-8")
    assert _used_names(path) == names
