"""Public names: every listed export resolves, the package re-exports
every module's list, each scheme module exports its steppers, the
reference code of the tests is not part of the package, and every
exported name is used by the package or its demos.  Every function of
the tests' reference code is used by a test."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import slub

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("grids", "problems", "semi_lagrangian", "ultrabee", "coupled", "diagnostics", "harness")


@pytest.mark.parametrize("name", ("slub", "slub.cli") + tuple(f"slub.{m}" for m in MODULES))
def test_every_listed_name_resolves(name: str) -> None:
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_lists_every_module_export() -> None:
    listed = set().union(*(importlib.import_module(f"slub.{m}").__all__ for m in MODULES))
    assert listed | {"__version__"} == set(slub.__all__)


@pytest.mark.parametrize(
    "module, kernel",
    [
        ("semi_lagrangian", "advect_const_stepper"),
        ("semi_lagrangian", "hj_stepper"),
        ("ultrabee", "ub_stepper"),
    ],
)
def test_scheme_modules_export_their_array_kernels(module: str, kernel: str) -> None:
    assert kernel in importlib.import_module(f"slub.{module}").__all__


@pytest.mark.parametrize(
    "module, entry",
    [("semi_lagrangian", "advect_const_values"), ("ultrabee", "ub_step_values")],
)
def test_one_call_entries_are_kept_but_not_exported(module: str, entry: str) -> None:
    """The benchmark's kernel sweep calls them as module attributes."""
    assert callable(getattr(importlib.import_module(f"slub.{module}"), entry))
    assert entry not in slub.__all__


# module -> names that live in tests/reference.py or were deleted from the package
TEST_ONLY = {
    "diagnostics": ("stability_witness", "StabilityReport"),
    "ultrabee": ("ub_flux_left", "ub_flux_right"),
    "semi_lagrangian": ("hj_update_values",),
    "problems": ("hopf_lax_oracle", "exact_advection_const", "exact_advection_linear_velocity"),
    "coupled": ("init_coupled_state", "backward_slopes", "active_cells", "project_to_cells"),
    "grids": ("edge_pad",),
}


@pytest.mark.parametrize("module", sorted(TEST_ONLY))
def test_test_only_names_are_not_in_the_package(module: str) -> None:
    names = TEST_ONLY[module]
    assert not set(names) & set(slub.__all__)
    assert [n for n in names if hasattr(importlib.import_module(f"slub.{module}"), n)] == []


# exported names no file of the package or its demos loads, with the reason
UNLOADED_EXPORTS = {
    "__version__": "package metadata, read by its users, not by the package",
    "classify_regularity": "the benchmark's kernel sweep calls it on one profile; "
                           "runs call the indicator `_indicator` prepares once per run",
}


def _loaded(tree) -> set:
    """The names and attribute names that `tree` loads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_export_is_loaded_by_the_package_or_its_demos() -> None:
    """An exported name that only the tests reach belongs in
    tests/reference.py, not in `slub.__all__`."""
    loaded = set()
    for path in sorted((ROOT / "src" / "slub").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        loaded |= _loaded(ast.parse(path.read_text(), str(path)))
    assert sorted(set(slub.__all__) - loaded) == sorted(UNLOADED_EXPORTS)


def test_every_reference_function_is_loaded_by_a_test() -> None:
    """Each top-level function of tests/reference.py is loaded by a test
    module, or by a function of reference.py that one loads, so that a
    fold of the tests leaves no earlier form behind that nothing checks
    against."""
    tests = ROOT / "tests"
    reference = tests / "reference.py"
    defs = {node.name: node for node in ast.parse(reference.read_text(), str(reference)).body
            if isinstance(node, ast.FunctionDef)}
    loaded = set()
    for path in sorted(set(tests.glob("*.py")) - {reference}):
        loaded |= _loaded(ast.parse(path.read_text(), str(path)))
    reached, todo = set(), list(loaded & set(defs))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += _loaded(defs[name]) & set(defs)
    assert sorted(set(defs) - reached) == []
