"""Public names: every listed export resolves, the package re-exports
every module's list, each scheme module exports its array kernel, and
the reference code of the tests is not part of the package."""

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
        ("semi_lagrangian", "hj_stepper"),
        ("ultrabee", "ub_step_values"),
    ],
)
def test_scheme_modules_export_their_array_kernels(module: str, kernel: str) -> None:
    assert kernel in importlib.import_module(f"slub.{module}").__all__


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
