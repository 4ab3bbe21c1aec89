"""Tests for total-variation monitoring, incremental-form extraction,
stability witnesses, and error norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slub.diagnostics import (
    convergence_orders,
    error_norms,
    extract_incremental,
    stability_witness,
    three_point_witness,
    total_variation,
    tv_monitor,
    tvb_allowance,
)
from slub.coupled import RegularityParams
from slub.grids import build_grid
from slub.semi_lagrangian import advect_const_values
from slub.ultrabee import ub_step_values


# ---------------------------------------------------------------------------
# total variation and TV monitoring


def test_total_variation_pinned() -> None:
    assert total_variation(np.array([0.0, 2.0, 1.0, 1.0])) == 3.0
    assert total_variation(np.array([5.0])) == 0.0
    assert total_variation(np.zeros(7)) == 0.0


def test_tvb_allowance_scales_with_domain() -> None:
    grid = build_grid(1.0, 3.0, 8)
    assert tvb_allowance(RegularityParams(0.5, 0.1, 0), grid) == pytest.approx(1.0)
    assert tvb_allowance(RegularityParams(0.0, 0.1, 0), grid) == 0.0


def test_tv_monitor_accepts_nonincreasing_series() -> None:
    series = tv_monitor(np.array([4.0, 4.0, 3.5, 3.5, 2.0]), allowance=0.0)
    assert series.ok
    assert series.n_violations == 0


def test_tv_monitor_flags_growth() -> None:
    series = tv_monitor(np.array([1.0, 1.5, 1.2]), allowance=0.0)
    assert not series.ok
    assert series.n_violations == 1


def test_tv_monitor_allowance_excuses_bounded_growth() -> None:
    values = np.array([1.0, 1.3, 1.1, 1.35])
    assert not tv_monitor(values, allowance=0.0).ok
    assert tv_monitor(values, allowance=0.5).ok


def test_tv_monitor_short_series_is_ok() -> None:
    assert tv_monitor(np.array([2.0]), allowance=0.0).ok
    assert tv_monitor(np.array([]), allowance=0.0).ok


# ---------------------------------------------------------------------------
# incremental form


def test_extract_incremental_on_upwind_step() -> None:
    rng = np.random.default_rng(7)
    u = rng.standard_normal(24)
    out = advect_const_values(u, 0.4)
    form = extract_incremental(u, out, nu_sign=1.0)
    assert form.is_tvd()
    assert form.max_residual < 1e-12
    assert np.all(form.coefficients >= -1e-14)
    assert np.all(form.coefficients <= 1.0 + 1e-14)


def test_extract_incremental_on_antidiffusive_step() -> None:
    rng = np.random.default_rng(11)
    u = rng.standard_normal(30)
    out = ub_step_values(u, 0.6)
    form = extract_incremental(u, out, nu_sign=1.0)
    assert form.max_residual < 1e-10
    assert form.is_tvd()


def test_extract_incremental_flat_interfaces_get_zero_coefficients() -> None:
    u = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
    out = advect_const_values(u, 0.25)
    form = extract_incremental(u, out, nu_sign=1.0)
    # differences across the flat interfaces vanish, coefficient is set to 0
    assert form.coefficients[0] == 0.0
    assert form.coefficients[1] == 0.0


def test_extract_incremental_detects_unstable_update() -> None:
    u = np.array([0.0, 1.0, 0.0, 0.0])
    bad = np.array([0.0, 2.5, -1.0, 0.0])  # overshoot no 2-point form explains
    form = extract_incremental(u, bad, nu_sign=1.0)
    assert not form.is_tvd()


# ---------------------------------------------------------------------------
# stability witnesses


def test_stability_witness_passes_convex_combination() -> None:
    rng = np.random.default_rng(3)
    u = rng.standard_normal(40)
    out = advect_const_values(u, 0.8)
    report = stability_witness(u, out, 0.8)
    assert report.ok
    assert report.max_violation <= 1e-14


def test_stability_witness_flags_overshoot() -> None:
    u = np.array([0.0, 0.0, 1.0, 1.0])
    out = np.array([0.0, 0.0, 1.2, 1.0])  # exceeds the local upwind bracket
    report = stability_witness(u, out, 0.5)
    assert not report.ok
    assert report.max_violation == pytest.approx(0.2)


def test_stability_witness_mirrors_for_negative_courant() -> None:
    rng = np.random.default_rng(5)
    u = rng.standard_normal(40)
    out = advect_const_values(u, -0.6)
    assert stability_witness(u, out, -0.6).ok


@pytest.mark.parametrize("nu", [0.0, -0.0, 1e-15, -1e-15, 0.7, -0.7, 1.0, -1.0])
def test_stability_witness_scalar_matches_per_entry_courant_numbers(nu: float) -> None:
    """One scalar nu gives the same report as an array filled with it,
    on updates that pass and on updates that break the bracket."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        u = rng.standard_normal(n)
        out = advect_const_values(u, nu) + rng.normal(0.0, 0.1, n) * (rng.random(n) < 0.3)
        scalar = stability_witness(u, out, nu)
        array = stability_witness(u, out, np.full(n, nu))
        assert scalar.max_violation == array.max_violation
        assert scalar.worst_index == array.worst_index
        assert scalar.ok == array.ok


def test_three_point_witness_brackets_min_combined_update() -> None:
    rng = np.random.default_rng(9)
    u = rng.standard_normal(40)
    fwd = ub_step_values(u, 0.5)
    bwd = ub_step_values(u, -0.5)
    out = np.minimum(fwd, bwd)
    report = three_point_witness(u, out)
    assert report.ok
    assert report.max_violation <= 1e-14


def test_three_point_witness_flags_values_outside_hull() -> None:
    u = np.array([0.0, 0.0, 0.0, 0.0])
    out = np.array([0.0, 1.0, 0.0, 0.0])
    report = three_point_witness(u, out)
    assert not report.ok


# ---------------------------------------------------------------------------
# error norms and convergence orders


def test_error_norms_pinned_values() -> None:
    approx = np.array([1.0, 2.0, 3.0])
    exact = np.array([1.0, 1.5, 3.5])
    rep = error_norms(approx, exact, dx=0.5)
    assert rep.l1 == pytest.approx(0.5 * (0.0 + 0.5 + 0.5))
    assert rep.l2 == pytest.approx(np.sqrt(0.5 * (0.25 + 0.25)))
    assert rep.linf == pytest.approx(0.5)
    # with no coordinates given the regular norm falls back to the full one
    assert rep.linf_reg == rep.linf


def test_error_norms_excludes_singular_neighborhoods() -> None:
    x = np.linspace(0.0, 1.0, 11)
    approx = np.zeros(11)
    exact = np.zeros(11)
    exact[5] = 1.0  # spike at x = 0.5
    rep = error_norms(approx, exact, dx=0.1, x=x, singular_points=(0.5,))
    assert rep.linf == pytest.approx(1.0)
    # default exclusion radius of three spacings removes the spike
    assert rep.linf_reg == pytest.approx(0.0)


def test_error_norms_regular_part_never_exceeds_full_norm() -> None:
    rng = np.random.default_rng(21)
    x = np.linspace(-1.0, 1.0, 41)
    approx = rng.standard_normal(41)
    exact = rng.standard_normal(41)
    rep = error_norms(approx, exact, dx=x[1] - x[0], x=x, singular_points=(0.0,))
    assert rep.linf_reg is not None
    assert rep.linf_reg <= rep.linf + 1e-15


def test_error_norms_shape_mismatch_raises() -> None:
    with pytest.raises(ValueError):
        error_norms(np.zeros(3), np.zeros(4), dx=0.1)


def test_convergence_orders_recovers_power_law() -> None:
    h = np.array([0.1, 0.05, 0.025, 0.0125])
    errors = 3.0 * h**2
    orders = convergence_orders(errors, h)
    np.testing.assert_allclose(orders, 2.0, rtol=1e-12)
    assert orders.size == 3


def test_convergence_orders_validates_lengths() -> None:
    with pytest.raises(ValueError):
        convergence_orders(np.array([1.0, 0.5]), np.array([0.1]))


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=2, max_value=30),
        elements=st.floats(-50, 50, allow_nan=False),
    ),
    st.floats(0.05, 1.0),
)
def test_upwind_step_never_increases_total_variation(u: np.ndarray, nu: float) -> None:
    out = advect_const_values(u, nu)
    assert total_variation(out) <= total_variation(u) + 1e-10 * (1 + total_variation(u))
