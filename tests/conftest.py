"""Shared pytest plumbing.

Collects one line per acceptance criterion as the suite runs and prints
the pass/fail table in the terminal summary, so a single `pytest -v`
shows both the unit results and the criterion scoreboard.  Also holds
the fixtures that inject a NaN or an inf into a run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import slub.harness

_CRITERIA: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture
def record_criterion():
    """Callable (index, label, passed, detail) -> None."""

    def _record(index: int, label: str, passed: bool, detail: str = "") -> None:
        _CRITERIA[index] = (label, bool(passed), detail)

    return _record


@pytest.fixture
def nan_at_step_3(monkeypatch):
    """Make every run's node and cell updates put a NaN at index 5 of
    their third output, i.e. at step 3.  Returns that index."""
    make_operators = slub.harness.make_operators

    def poisoned_make_operators(*args, **kwargs):
        ops = make_operators(*args, **kwargs)

        def poison(update):
            calls = []

            def step(v):
                out = update(v)
                calls.append(1)
                if len(calls) == 3:
                    out = out.copy()
                    out[5] = np.nan
                return out

            return step

        return replace(
            ops, node_update=poison(ops.node_update), cell_update=poison(ops.cell_update)
        )

    monkeypatch.setattr(slub.harness, "make_operators", poisoned_make_operators)
    return 5


@pytest.fixture(params=[np.nan, np.inf], ids=["nan", "inf"])
def poison_step(request, monkeypatch):
    """Callable poison(step, index, node=True, cell=True) -> value: make
    every run's node and/or cell update put this fixture's value (NaN or
    inf) at `index` of its output number `step`."""
    value = request.param
    make_operators = slub.harness.make_operators

    def poison(step: int, index: int, node: bool = True, cell: bool = True) -> float:
        def wrap(update):
            calls = []

            def stepped(v):
                out = update(v)
                calls.append(1)
                if len(calls) == step:
                    out = out.copy()
                    out[index] = value
                return out

            return stepped

        def poisoned_make_operators(*args, **kwargs):
            ops = make_operators(*args, **kwargs)
            return replace(
                ops,
                node_update=wrap(ops.node_update) if node else ops.node_update,
                cell_update=wrap(ops.cell_update) if cell else ops.cell_update,
            )

        monkeypatch.setattr(slub.harness, "make_operators", poisoned_make_operators)
        return value

    return poison


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(_CRITERIA):
        label, passed, detail = _CRITERIA[index]
        status = "PASS" if passed else "FAIL"
        line = f"[{index:2d}] {label:<52s} {status}"
        if detail:
            line += f"  {detail}"
        terminalreporter.write_line(line)
    n_fail = sum(1 for _, ok, _ in _CRITERIA.values() if not ok)
    terminalreporter.write_line(
        f"criteria passed: {len(_CRITERIA) - n_fail}/{len(_CRITERIA)}"
    )
