"""Public names: every listed export resolves, the package re-exports
every module's list, and each scheme module exports its array kernel."""

from __future__ import annotations

import importlib

import pytest

import slub

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
        ("semi_lagrangian", "advect_const_values"),
        ("semi_lagrangian", "hj_update_values"),
        ("ultrabee", "ub_step_values"),
    ],
)
def test_scheme_modules_export_their_array_kernels(module: str, kernel: str) -> None:
    assert kernel in importlib.import_module(f"slub.{module}").__all__
