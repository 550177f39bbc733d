"""Every name a sketch_infer module lists in ``__all__`` resolves on that module."""

import importlib
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
