"""Benchmark problems: initial profiles, exact solutions, and presets.

Each registered problem bundles an initial condition (with an exact
antiderivative so cell averages carry no quadrature error), the exact
solution used as the error reference, the transported singular points,
and the run presets (grid ladder, target Courant number, horizon,
switching-indicator thresholds).  Each kind has one velocity law, the
one its closed-form reference covers: a constant c, the contracting
c(x) = -(x - x_bar), or the erosion v_t + |c v_x| = 0 with speed c.

Registry keys: "adv-smooth", "adv-jump", "adv-mix", "adv-var", "hj-abs".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ic_smooth",
    "ic_jump",
    "ic_mix",
    "ic_smooth_var",
    "exact_advection_const",
    "exact_advection_linear_velocity",
    "hopf_lax_oracle",
    "singular_points",
    "ProblemSpec",
    "get_problem",
    "problem_names",
    "REGISTRY",
]


def _dispatch(x, out):
    """Return a float for scalar input, ndarray otherwise."""
    return out if np.ndim(x) else float(out)


# ---------------------------------------------------------------------------
# initial profiles and exact antiderivatives


def ic_smooth(x):
    """Quartic bump (1 - x^2)^4 on |x| <= 1, zero outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= 1.0
    return _dispatch(x, np.where(inside, (1.0 - x * x) ** 4, 0.0))


def _bump_primitive(x):
    # antiderivative of (1 - x^2)^4 = 1 - 4x^2 + 6x^4 - 4x^6 + x^8
    return (
        x
        - 4.0 / 3.0 * x**3
        + 6.0 / 5.0 * x**5
        - 4.0 / 7.0 * x**7
        + 1.0 / 9.0 * x**9
    )


def ic_smooth_antiderivative(x):
    x = np.asarray(x, dtype=float)
    return _dispatch(x, _bump_primitive(np.clip(x, -1.0, 1.0)))


ic_smooth.antiderivative = ic_smooth_antiderivative


def ic_jump(x):
    """Box profile: 1 on |x| <= 1, zero outside."""
    x = np.asarray(x, dtype=float)
    return _dispatch(x, np.where(np.abs(x) <= 1.0, 1.0, 0.0))


def ic_jump_antiderivative(x):
    x = np.asarray(x, dtype=float)
    return _dispatch(x, np.clip(x, -1.0, 1.0) + 1.0)


ic_jump.antiderivative = ic_jump_antiderivative


def _hat_primitive(s):
    # antiderivative of max(0, 1 - |s|), zero at s = -1
    s = np.clip(s, -1.0, 1.0)
    neg = 0.5 * (s + 1.0) ** 2
    pos = 0.5 + s - 0.5 * s * s
    return np.where(s <= 0.0, neg, pos)


def ic_mix(x):
    """Hat on (-4,-2), quartic bump on (-1,1), box on (2,3)."""
    x = np.asarray(x, dtype=float)
    hat = np.where((x > -4.0) & (x < -2.0), 1.0 - np.abs(x + 3.0), 0.0)
    bump = np.where(np.abs(x) <= 1.0, (1.0 - x * x) ** 4, 0.0)
    box = np.where((x >= 2.0) & (x <= 3.0), 1.0, 0.0)
    return _dispatch(x, hat + bump + box)


def ic_mix_antiderivative(x):
    x = np.asarray(x, dtype=float)
    out = (
        _hat_primitive(x + 3.0)
        + _bump_primitive(np.clip(x, -1.0, 1.0))
        + np.clip(x, 2.0, 3.0)
    )
    return _dispatch(x, out)


ic_mix.antiderivative = ic_mix_antiderivative


def ic_smooth_var(x):
    """Compact bump max(0, 1 - 16(x - 1/4)^2)^2 used on the unit interval."""
    x = np.asarray(x, dtype=float)
    s = x - 0.25
    return _dispatch(x, np.maximum(0.0, 1.0 - 16.0 * s * s) ** 2)


def ic_smooth_var_antiderivative(x):
    x = np.asarray(x, dtype=float)
    s = np.clip(x - 0.25, -0.25, 0.25)
    # antiderivative of 1 - 32 s^2 + 256 s^4, zero at s = -1/4
    prim = s - 32.0 / 3.0 * s**3 + 256.0 / 5.0 * s**5
    return _dispatch(x, prim - (-0.25 + 32.0 / 3.0 * 0.25**3 - 256.0 / 5.0 * 0.25**5))


ic_smooth_var.antiderivative = ic_smooth_var_antiderivative


# ---------------------------------------------------------------------------
# exact solutions


def exact_advection_const(ic, c: float, x, t: float):
    """Exact constant-velocity transport: ic(x - c t)."""
    x = np.asarray(x, dtype=float)
    return _dispatch(x, np.asarray(ic(x - c * t), dtype=float))


def exact_advection_linear_velocity(ic, x_bar: float, x, t: float):
    """Exact solution for velocity c(x) = -(x - x_bar).

    Characteristics contract toward x_bar; tracing back from (x, t)
    gives the starting point x_bar + (x - x_bar) e^t.
    """
    x = np.asarray(x, dtype=float)
    feet = x_bar + (x - x_bar) * math.exp(t)
    return _dispatch(x, np.asarray(ic(feet), dtype=float))


def hopf_lax_oracle(ic, c: float, x, t: float, n_samples: int = 2001):
    """Reference solution of v_t + |c v_x| = 0: erosion of the profile.

    Evaluates min over y in [x - c t, x + c t] of ic(y) by dense sampling
    followed by local ternary refinement around the sampled minimizer.

    Parameters
    ----------
    ic : callable
        Initial profile (vectorized).
    c : float
        Speed bound, c >= 0.
    x : float or ndarray
    t : float
    n_samples : int
        Dense sample count per evaluation point (>= 3).
    """
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if n_samples < 3:
        raise ValueError("n_samples must be at least 3")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    r = c * t
    if r == 0.0:
        return _dispatch(x, np.asarray(ic(xa), dtype=float).reshape(np.shape(x)))

    u = np.linspace(0.0, 1.0, n_samples)
    Y = (xa - r)[:, None] + (2.0 * r) * u[None, :]
    V = np.asarray(ic(Y.ravel()), dtype=float).reshape(Y.shape)
    k = np.argmin(V, axis=1)
    h = 2.0 * r / (n_samples - 1)
    ystar = Y[np.arange(xa.size), k]
    lo = np.maximum(ystar - h, xa - r)
    hi = np.minimum(ystar + h, xa + r)
    # ternary refinement; the dense pass has isolated the basin
    for _ in range(120):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = np.asarray(ic(m1), dtype=float)
        f2 = np.asarray(ic(m2), dtype=float)
        take_left = f1 <= f2
        hi = np.where(take_left, m2, hi)
        lo = np.where(take_left, lo, m1)
    ymin = 0.5 * (lo + hi)
    out = np.minimum(V[np.arange(xa.size), k], np.asarray(ic(ymin), dtype=float))
    return _dispatch(x, out.reshape(np.shape(x)))


# ---------------------------------------------------------------------------
# problem registry


# kind -> (the law parameter it reads, what it is, the law, its closed-form reference)
_LAWS = {
    "advection-const": ("c", "speed", "constant velocity", "ic(x - c*t)"),
    "advection-var": ("x_bar", "centre", "velocity -(x - x_bar)", "ic(x_bar + (x - x_bar)*e^t)"),
    "hj": ("c", "speed", "erosion speed", "the erosion ic(|x| + c*t)"),
}


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark problem plus its run presets.

    kind is one of "advection-const", "advection-var", "hj"; each has one
    law, the one its closed-form reference covers, read from one
    parameter: the constant velocity c, the velocity -(x - x_bar), or
    the erosion v_t + |c v_x| = 0 at speed c.  That parameter must be a
    finite real number (c >= 0 for "hj") and the other one None; a spec
    that breaks this is rejected with a ValueError when it is built.
    The time step scales with |c|, 1 for "advection-var" (see
    `slub.harness.time_ladder`).
    delta_factor / flat_frac scale the switching-indicator thresholds
    relative to the initial maximum slope.  support_t0, when set, is the
    (lo, hi) support of the initial profile; `slub.harness.resolve_grid`
    then extends an "advection-const" domain on each side the
    transported support would leave.
    """

    name: str
    kind: str
    ic: Callable
    a: float
    b: float
    T: float
    nu: float
    m_ladder: tuple
    c: Optional[float] = None
    x_bar: Optional[float] = None
    delta_factor: float = 1.05
    flat_frac: float = 0.12
    guard: int = 0
    support_t0: Optional[tuple] = None
    sing_points_t0: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _LAWS:
            raise ValueError(f"unknown problem kind {self.kind!r}; choose from {tuple(_LAWS)}")
        reads, what, law, reference = _LAWS[self.kind]
        value = getattr(self, reads)
        bound = " >= 0" if self.kind == "hj" else ""
        if not (isinstance(value, numbers.Real) and math.isfinite(value)
                and (not bound or value >= 0.0)):
            raise ValueError(f"an {self.kind} problem needs a finite real {what} {reads}{bound} "
                             f"(its reference is {reference}), got {reads}={value!r}")
        unread = "x_bar" if reads == "c" else "c"
        stray = getattr(self, unread)
        if stray is not None:
            raise ValueError(f"an {self.kind} problem takes its {law} from {reads} alone, the one "
                             f"law its closed-form reference covers; got {unread}={stray!r}")

    def exact(self, x, t: float):
        """Reference solution at time t (vectorized in x).

        Closed form for every kind.  For "hj" it is the erosion
        ic(|x| + r), r = c*t: the Hopf-Lax minimum of ic over
        [x - r, x + r] sits at the end farther from 0 when ic is even and
        unimodal, the same assumption exact_antiderivative makes.
        `hopf_lax_oracle` computes that minimum directly and is the
        cross-check.
        """
        if self.kind == "advection-const":
            return exact_advection_const(self.ic, self.c, x, t)
        if self.kind == "advection-var":
            return exact_advection_linear_velocity(self.ic, self.x_bar, x, t)
        r = self.c * t  # hj
        x = np.asarray(x, dtype=float)
        return _dispatch(x, np.asarray(self.ic(np.abs(x) + r), dtype=float))

    def exact_antiderivative(self, x, t: float):
        """Antiderivative in x of the reference solution at time t.

        Available in closed form for every registered problem; used to
        compute exact cell averages without quadrature error.
        """
        F = self.ic.antiderivative
        x = np.asarray(x, dtype=float)
        if self.kind == "advection-const":
            return _dispatch(x, np.asarray(F(x - self.c * t), dtype=float))
        if self.kind == "advection-var":
            lam = math.exp(t)
            return _dispatch(
                x, np.asarray(F(self.x_bar + (x - self.x_bar) * lam), dtype=float) / lam
            )
        # hj, the erosion of an even unimodal profile: v(x,t) = ic(|x| + r),
        # integrated piecewise on each side of the kink at 0
        r = self.c * t
        Fp = np.asarray(F(x + r), dtype=float)
        Fm = np.asarray(F(r - x), dtype=float)
        F0 = float(F(np.asarray(r, dtype=float)))
        return _dispatch(x, np.where(x >= 0.0, Fp, 2.0 * F0 - Fm))

    def velocity_values(self, x: np.ndarray) -> np.ndarray:
        """Velocity sampled at positions x (constant kinds broadcast)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "advection-const":
            return np.full_like(x, float(self.c))
        if self.kind == "advection-var":
            return -(x - self.x_bar)
        raise ValueError("velocity_values only applies to advection problems")


def singular_points(problem: ProblemSpec, t: float) -> np.ndarray:
    """Positions of transported kinks/jumps of the reference at time t."""
    pts = np.asarray(problem.sing_points_t0, dtype=float)
    if pts.size == 0:
        return pts
    if problem.kind == "advection-const":
        return pts + problem.c * t
    if problem.kind == "advection-var":
        return problem.x_bar + (pts - problem.x_bar) * math.exp(-t)
    return pts  # hj kink stays put


_LADDER_A = (19, 39, 79, 159, 319, 639)

REGISTRY = {p.name: p for p in (
    ProblemSpec(
        name="adv-smooth",
        kind="advection-const",
        ic=ic_smooth,
        a=-2.0,
        b=2.0,
        T=2.0,
        nu=0.9,
        m_ladder=_LADDER_A,
        c=1.0,
        delta_factor=1.05,
        flat_frac=0.25,
        support_t0=(-1.0, 1.0),
    ),
    ProblemSpec(
        name="adv-jump",
        kind="advection-const",
        ic=ic_jump,
        a=-2.0,
        b=2.0,
        T=2.0,
        nu=0.9,
        m_ladder=_LADDER_A,
        c=1.0,
        delta_factor=0.3,
        flat_frac=0.12,
        guard=3,
        support_t0=(-1.0, 1.0),
        sing_points_t0=(-1.0, 1.0),
    ),
    ProblemSpec(
        name="adv-mix",
        kind="advection-const",
        ic=ic_mix,
        a=-4.5,
        b=4.5,
        T=6.0,
        nu=1.0 / 12.0,
        m_ladder=(100, 200, 400, 800, 1600),
        c=0.1,
        delta_factor=0.3,
        flat_frac=0.12,
        guard=3,
        sing_points_t0=(-4.0, -3.0, -2.0, 2.0, 3.0),
    ),
    ProblemSpec(
        name="adv-var",
        kind="advection-var",
        ic=ic_smooth_var,
        a=0.0,
        b=1.0,
        T=1.0,
        nu=0.6,
        m_ladder=_LADDER_A,
        x_bar=1.1,
        delta_factor=3.0,
        flat_frac=0.5,
    ),
    ProblemSpec(
        name="hj-abs",
        kind="hj",
        ic=ic_smooth,
        a=-2.0,
        b=2.0,
        T=0.5,
        nu=0.6,
        m_ladder=_LADDER_A,
        c=1.0,
        delta_factor=1.05,
        flat_frac=0.75,
        sing_points_t0=(0.0,),
    ),
)}


def get_problem(name: str) -> ProblemSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown problem {name!r}; known problems: {known}") from None


def problem_names() -> Sequence[str]:
    return tuple(REGISTRY)
