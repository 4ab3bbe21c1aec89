"""Initial profiles, exact solutions, and the problem registry.

Oracle values here were fixed before the solvers were written: closed
forms where available, otherwise independent numerics (central
differences for antiderivatives, high-order ODE back-tracing for the
contracting-velocity solution).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slub.harness import resolve_grid, run_scheme, time_ladder
from slub.problems import (
    REGISTRY,
    get_problem,
    ic_jump,
    ic_mix,
    ic_smooth,
    ic_smooth_var,
    problem_names,
    singular_points,
)
from reference import hopf_lax_oracle

ALL_ICS = [ic_smooth, ic_jump, ic_mix, ic_smooth_var]


def test_profile_point_values() -> None:
    assert ic_smooth(0.0) == 1.0
    assert ic_smooth(1.0) == 0.0 and ic_smooth(-1.0) == 0.0
    assert ic_smooth(2.0) == 0.0
    assert ic_smooth(0.5) == pytest.approx(0.75**4)
    assert ic_jump(0.0) == 1.0 and ic_jump(1.5) == 0.0
    assert ic_mix(-3.0) == 1.0  # hat peak
    assert ic_mix(-2.5) == pytest.approx(0.5)
    assert ic_mix(0.0) == 1.0  # bump peak
    assert ic_mix(2.5) == 1.0  # box plateau
    assert ic_mix(1.5) == 0.0
    assert ic_smooth_var(0.25) == 1.0
    assert ic_smooth_var(0.375) == pytest.approx(0.5625)
    assert ic_smooth_var(0.75) == 0.0


def test_profiles_dispatch_scalar_and_array() -> None:
    for ic in ALL_ICS:
        assert isinstance(ic(0.1), float)
        out = ic(np.array([0.0, 0.1, 5.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)


@pytest.mark.parametrize("ic", ALL_ICS)
def test_antiderivative_differentiates_back(ic) -> None:
    """Central differences of the attached antiderivative recover the
    profile away from its kinks."""
    F = ic.antiderivative
    x = np.linspace(-5.0, 5.0, 2003)
    h = 1e-6
    approx = (np.asarray(F(x + h)) - np.asarray(F(x - h))) / (2.0 * h)
    vals = np.asarray(ic(x))
    # kinks/jumps contaminate the stencil only within h of the break
    smoothish = np.abs(approx - vals) < 1e-6
    assert np.count_nonzero(~smoothish) <= 12


def test_mix_total_mass() -> None:
    """Hat of mass 1, quartic bump of mass 2*(1 - 4/3 + 6/5 - 4/7 + 1/9),
    box of mass 1."""
    F = ic_mix.antiderivative
    bump_mass = 2.0 * (1.0 - 4.0 / 3.0 + 6.0 / 5.0 - 4.0 / 7.0 + 1.0 / 9.0)
    assert F(4.5) - F(-4.5) == pytest.approx(2.0 + bump_mass, rel=1e-14)


def test_exact_advection_const_translates() -> None:
    x = np.linspace(-2.0, 4.0, 301)
    out = get_problem("adv-smooth").exact(x, 2.0)
    np.testing.assert_allclose(out, ic_smooth(x - 2.0), rtol=0, atol=0)
    assert replace(get_problem("adv-jump"), c=-0.5).exact(0.0, 1.0) == ic_jump(0.5)


def test_exact_linear_velocity_against_rk4() -> None:
    """Back-tracing x' = -(x - x_bar) with RK4 must land on the closed
    form x_bar + (x - x_bar) e^t."""
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 1.0, 200)
    t = 0.8
    x_bar = 1.1
    n_sub = 200
    h = -t / n_sub
    y = x.copy()
    for _ in range(n_sub):
        k1 = -(y - x_bar)
        k2 = -((y + 0.5 * h * k1) - x_bar)
        k3 = -((y + 0.5 * h * k2) - x_bar)
        k4 = -((y + h * k3) - x_bar)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    expected = ic_smooth_var(y)
    assert get_problem("adv-var").x_bar == x_bar
    got = get_problem("adv-var").exact(x, t)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_hopf_lax_oracle_erodes_the_bump() -> None:
    """min over |y - x| <= c t of the profile; at x=0, t=1/2 the quartic
    bump gives (1 - 1/4)^4 = 81/256."""
    assert hopf_lax_oracle(ic_smooth, 1.0, 0.0, 0.5) == pytest.approx(
        0.31640625, abs=1e-9
    )
    assert hopf_lax_oracle(ic_smooth, 1.0, 0.5, 0.25) == pytest.approx(
        ic_smooth(0.75), abs=1e-9
    )
    # t = 0 returns the profile itself
    assert hopf_lax_oracle(ic_smooth, 1.0, 0.3, 0.0) == ic_smooth(0.3)


@given(
    x=st.floats(min_value=-1.5, max_value=1.5),
    t=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_hopf_lax_oracle_matches_closed_form(x: float, t: float) -> None:
    """For the even, unimodal bump the minimum sits at the window edge
    closer to the support boundary: value is ic(|x| + t)."""
    expected = ic_smooth(abs(x) + t)
    got = hopf_lax_oracle(ic_smooth, 1.0, x, t)
    assert got == pytest.approx(expected, abs=1e-10)


def test_hj_exact_equals_oracle_at_every_rung() -> None:
    """The closed-form hj-abs reference reproduces the Hopf-Lax oracle
    at the nodes of every ladder rung, at the final and a midway time."""
    p = get_problem("hj-abs")
    for m in p.m_ladder:
        nodes = resolve_grid(p, m).nodes
        dt, n = time_ladder(p, m)
        for t in (dt * n, dt * (n // 2)):
            assert np.array_equal(p.exact(nodes, t), hopf_lax_oracle(p.ic, p.c, nodes, t)), (m, t)


# per problem: the values of c it rejects and the message they raise,
# then the same for x_bar
_BAD_C = {
    "adv-smooth": ((None, math.nan, math.inf, lambda x: 1.0, "1"),
                   r"finite real speed c .*ic\(x - c\*t\)"),
    "hj-abs": ((None, math.nan, math.inf, -1.0, -0.5, lambda x: 1.0),
               r"real speed c >= 0 .*ic\(\|x\| \+ c\*t\)"),
    "adv-var": ((1.0, 0.0, lambda x: 0.5 * (1.1 - x)),
                r"-\(x - x_bar\) from x_bar.*closed-form"),
}
_BAD_X_BAR = {
    "adv-smooth": ((0.5, 0.0), r"constant velocity from c alone.*closed-form"),
    "hj-abs": ((0.5, 0.0), r"erosion speed from c alone.*closed-form"),
    "adv-var": ((None, math.nan, math.inf, "1.1"),
                r"finite real centre x_bar .*ic\(x_bar \+ \(x - x_bar\)\*e\^t\)"),
}


@pytest.mark.parametrize("name", sorted(_BAD_C))
def test_spec_rejects_a_velocity_its_reference_does_not_cover(name: str) -> None:
    """Each kind's closed-form reference covers one velocity law, read
    from one parameter, and a spec is checked when it is built.  The hj
    reference is the erosion ic(|x| + c*t), which needs a finite real
    speed c >= 0, and an advection-const one a finite real c; a c of None
    or inf otherwise failed later, in `resolve_grid` or `time_ladder`.
    The advection-var reference traces the contracting velocity
    -(x - x_bar) back, so a c of its own would run a different law than
    the one it is scored against: c(x) = 0.5*(1.1 - x) at m = 79 read an
    l1 error of 0.249 under sl where the preset reads 0.039.  The same
    holds for an x_bar on the kinds that do not read it."""
    p = get_problem(name)
    for field, bad in (("c", _BAD_C), ("x_bar", _BAD_X_BAR)):
        values, message = bad[name]
        for value in values:
            with pytest.raises(ValueError, match=message + rf".*got {field}="):
                replace(p, **{field: value})
    if p.kind == "hj":
        faster = replace(p, c=2.0)
        assert faster.exact(0.25, 0.25) == ic_smooth(0.75)
        assert faster.exact(0.25, 0.25) == hopf_lax_oracle(ic_smooth, 2.0, 0.25, 0.25)
    elif p.kind == "advection-var":
        x = np.linspace(p.a, p.b, 7)
        assert np.array_equal(p.velocity_values(x), -(x - p.x_bar))
    else:  # any finite real c, of either sign
        x = np.linspace(p.a, p.b, 7)
        assert np.array_equal(replace(p, c=-2.0).velocity_values(x), np.full(7, -2.0))


def test_advection_var_spec_rejects_an_x_bar_it_cannot_run_at_its_nu() -> None:
    """The time step takes speed 1 for advection-var, but the velocity
    -(x - x_bar) reaches max(|a - x_bar|, |b - x_bar|) on the domain.  So
    x_bar = -1 on [0, 1] at nu 0.6 promises Courant numbers up to 1.2;
    it used to build and then fail in its first run with "CFL violated
    at index 19: Courant number |nu| = 1.1875 > 1".  It is rejected when
    it is built, naming x_bar; at nu 0.5 it reaches 1 exactly, builds
    and runs; the preset reaches 0.6 * 1.1 = 0.66."""
    p = get_problem("adv-var")
    with pytest.raises(ValueError, match=r"nu\*max\(\|a - x_bar\|, \|b - x_bar\|\) <= 1.*"
                                         r"got nu=0\.6, x_bar=-1\.0$"):
        replace(p, x_bar=-1.0)
    with pytest.raises(ValueError, match=r"x_bar=2\.7"):
        replace(p, x_bar=2.7)
    edge = replace(p, x_bar=-1.0, nu=0.5)
    for scheme in ("sl", "ub", "coupled"):
        assert run_scheme(edge, scheme, 19).witness_max <= 1e-12
    assert p.nu * max(abs(p.a - p.x_bar), abs(p.b - p.x_bar)) == pytest.approx(0.66)


def test_spec_rejects_a_support_t0_it_cannot_use() -> None:
    """support_t0 extends an advection-const grid, so it must be a
    finite pair with lo < hi, and any other kind, which runs on its
    stated window, must leave it None.  adv-var with (5, 9) used to build
    and run on the plain grid, and adv-jump with (1, -1) got a grid of
    m = 19 where its real support needs 27."""
    for name, support in [("adv-var", (5.0, 9.0)), ("hj-abs", (-1.0, 1.0))]:
        with pytest.raises(ValueError, match=r"only advection-const reads support_t0, got support_t0="):
            replace(get_problem(name), support_t0=support)
    for support in [(1.0, -1.0), (1.0, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1.0,),
                    (-1.0, 0.0, 1.0), (-1.0, "1"), "ab", 1.0]:
        with pytest.raises(ValueError, match=r"support_t0 must be a finite pair .* got support_t0="):
            replace(get_problem("adv-jump"), support_t0=support)
    assert replace(get_problem("adv-jump"), support_t0=[-1, 1.5]).support_t0 == [-1, 1.5]
    assert replace(get_problem("adv-var"), support_t0=None).support_t0 is None


def test_spec_rejects_a_nu_or_horizon_it_cannot_run() -> None:
    """A spec checks its Courant number and horizon when it is built, so
    `replace` cannot make one that only fails once a run starts."""
    with pytest.raises(ValueError, match=r"^nu must lie in \(0, 1\], got 2\.0$"):
        replace(get_problem("adv-jump"), nu=2.0)
    with pytest.raises(ValueError, match=r"^T must be finite and positive, got inf$"):
        replace(get_problem("hj-abs"), T=math.inf)
    assert replace(get_problem("adv-jump"), nu=1.0).nu == 1.0


def test_spec_rejects_an_unknown_kind() -> None:
    """A misspelt kind fails when the spec is built, not once a run
    reaches the first branch on it."""
    with pytest.raises(ValueError, match=r"unknown problem kind 'advection'; choose from"):
        replace(get_problem("adv-smooth"), kind="advection")


def test_hopf_lax_oracle_validates_arguments() -> None:
    with pytest.raises(ValueError):
        hopf_lax_oracle(ic_smooth, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        hopf_lax_oracle(ic_smooth, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        hopf_lax_oracle(ic_smooth, 1.0, 0.0, 1.0, n_samples=2)


def test_registry_contents() -> None:
    assert set(problem_names()) == {
        "adv-smooth",
        "adv-jump",
        "adv-mix",
        "adv-var",
        "hj-abs",
    }
    smooth = get_problem("adv-smooth")
    assert smooth.kind == "advection-const" and smooth.c == 1.0
    assert smooth.m_ladder == (19, 39, 79, 159, 319, 639)
    assert get_problem("adv-mix").nu == pytest.approx(1.0 / 12.0)
    assert get_problem("adv-var").x_bar == 1.1
    hj = get_problem("hj-abs")
    assert hj.c == 1.0 and get_problem("adv-var").c is None
    with pytest.raises(ValueError, match="unknown problem"):
        get_problem("nope")


def test_problem_exact_dispatch() -> None:
    p = get_problem("adv-smooth")
    x = np.linspace(-2.0, 4.0, 50)
    np.testing.assert_allclose(p.exact(x, 2.0), ic_smooth(x - 2.0))
    pv = get_problem("adv-var")
    np.testing.assert_array_equal(pv.exact(x, 1.0), ic_smooth_var(1.1 + (x - 1.1) * math.exp(1.0)))
    hj = get_problem("hj-abs")
    np.testing.assert_array_equal(hj.exact(x, 0.5), ic_smooth(np.abs(x) + 0.5))
    assert isinstance(pv.exact(0.5, 1.0), float)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_exact_antiderivative_consistency(name: str) -> None:
    """d/dx of the solution antiderivative equals the solution (checked
    by central differences away from breaks)."""
    p = get_problem(name)
    t = 0.3 * p.T
    x = np.linspace(p.a, p.b, 801)
    h = 1e-6
    Fp = np.asarray(p.exact_antiderivative(x + h, t), dtype=float)
    Fm = np.asarray(p.exact_antiderivative(x - h, t), dtype=float)
    approx = (Fp - Fm) / (2.0 * h)
    vals = np.asarray(p.exact(x, t), dtype=float)
    bad = np.abs(approx - vals) > 5e-5
    assert np.count_nonzero(bad) <= 8


def test_singular_points_transport() -> None:
    np.testing.assert_allclose(
        singular_points(get_problem("adv-jump"), 2.0), [1.0, 3.0]
    )
    np.testing.assert_allclose(
        singular_points(get_problem("adv-mix"), 6.0),
        np.array([-4.0, -3.0, -2.0, 2.0, 3.0]) + 0.6,
    )
    # contracting flow pulls kinks toward x_bar
    pv = get_problem("adv-var")
    assert singular_points(pv, 1.0).size == 0
    np.testing.assert_allclose(singular_points(get_problem("hj-abs"), 0.5), [0.0])


def test_singular_points_contract_toward_x_bar() -> None:
    """An advection-var kink moves along its characteristic, x_bar +
    (x - x_bar) e^-t, bit for bit."""
    pts = np.array([0.2, 0.5])
    moved = singular_points(replace(get_problem("adv-var"), sing_points_t0=(0.2, 0.5)), 1.0)
    np.testing.assert_array_equal(moved, 1.1 + (pts - 1.1) * math.exp(-1.0))


def test_hj_singular_points_erode_on_both_sides() -> None:
    """The hj reference ic(|x| + c*t) is even: a time-0 point p sits at
    +-(|p| - c*t), on both sides, until c*t reaches |p|, and then in the
    kink at 0.  The jumps of ic_jump at +-1 read at +-0.5 at t = 0.5,
    where `exact` jumps, and `linf_reg` of an sl run bands them out (it
    read linf, 0.422, while the points stayed at +-1)."""
    spec = replace(get_problem("hj-abs"), ic=ic_jump, sing_points_t0=(-1.0, 0.0, 1.0))
    np.testing.assert_array_equal(singular_points(spec, 0.5), [-0.5, 0.0, 0.5])
    np.testing.assert_array_equal(spec.exact([-0.51, -0.49, 0.49, 0.51], 0.5), [0, 1, 1, 0])
    assert set(singular_points(replace(spec, sing_points_t0=(1.0,)), 0.5)) == {-0.5, 0.5}
    np.testing.assert_array_equal(singular_points(replace(spec, sing_points_t0=(0.3,)), 0.5), [0.0])
    errors = run_scheme(spec, "sl", 79).errors
    assert errors.linf_reg < 0.1 < errors.linf


def test_spec_rejects_a_singular_point_that_is_not_a_finite_real() -> None:
    """A NaN singular point used to build and then zero `linf_reg`, whose
    band comparisons it fails; a string failed only after the last step."""
    for points in ((float("nan"),), (0.0, math.inf), ("a",), (None,), 0.5):
        with pytest.raises(ValueError, match=r"sing_points_t0 must .* got sing_points_t0="):
            replace(get_problem("adv-jump"), sing_points_t0=points)
    assert replace(get_problem("adv-jump"), sing_points_t0=[-1, 1.5]).sing_points_t0 == [-1, 1.5]


def test_speed_bound() -> None:
    """The largest |velocity| on the grid nodes, which is what the CFL
    check sees; hj problems have a speed instead of a velocity."""
    for name, bound in (("adv-smooth", 1.0), ("adv-var", 1.1)):
        p = get_problem(name)
        speeds = p.velocity_values(resolve_grid(p, 40).nodes)
        assert np.max(np.abs(speeds)) == pytest.approx(bound)
    hj = get_problem("hj-abs")
    with pytest.raises(ValueError, match="only applies to advection"):
        hj.velocity_values(resolve_grid(hj, 40).nodes)
    assert hj.c == 1.0
