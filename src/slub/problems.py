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
    that breaks this is rejected with a ValueError when it is built, as
    is a nu outside (0, 1] or a T that is not finite and positive.  The
    time step scales with |c|, 1 for "advection-var" (see `time_ladder`),
    whose largest Courant number nu*max(|a - x_bar|, |b - x_bar|) must be <= 1.
    delta_factor / flat_frac scale the switching-indicator thresholds
    relative to the initial maximum slope.  support_t0, when set, is the
    (lo, hi) support of the initial profile, a finite pair with lo < hi,
    and only an "advection-const" spec may set it: `slub.harness.resolve_grid`
    then extends the domain on each side the transported support would
    leave.  sing_points_t0, the reference's kinks and jumps at t = 0,
    must be finite real numbers.
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
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if self.kind not in _LAWS:
            raise ValueError(f"unknown problem kind {self.kind!r}; choose from {tuple(_LAWS)}")
        reads, what, law, reference = _LAWS[self.kind]
        value = getattr(self, reads)
        bound = " >= 0" if self.kind == "hj" else ""
        if not (isinstance(value, numbers.Real) and math.isfinite(value)
                and (not bound or value >= 0.0)):
            raise ValueError(f"an {self.kind} problem needs a finite real {what} {reads}{bound} "
                             f"(its reference is {reference}), got {reads}={value!r}")
        if reads == "x_bar" and self.nu * max(abs(self.a - value), abs(self.b - value)) > 1.0:
            raise ValueError(f"an {self.kind} problem needs nu*max(|a - x_bar|, |b - x_bar|)"
                             f" <= 1, got nu={self.nu}, x_bar={value!r}")
        unread = "x_bar" if reads == "c" else "c"
        stray = getattr(self, unread)
        if stray is not None:
            raise ValueError(f"an {self.kind} problem takes its {law} from {reads} alone, the one "
                             f"law its closed-form reference covers; got {unread}={stray!r}")
        support = self.support_t0
        if support is not None:
            if self.kind != "advection-const":
                raise ValueError(f"an {self.kind} problem runs on its stated window; only "
                                 f"advection-const reads support_t0, got support_t0={support!r}")
            pair = isinstance(support, (tuple, list)) and len(support) == 2
            if not (pair and all(isinstance(e, numbers.Real) for e in support)
                    and -math.inf < support[0] < support[1] < math.inf):
                raise ValueError(f"support_t0 must be a finite pair (lo, hi) with lo < hi, "
                                 f"got support_t0={support!r}")
        points = self.sing_points_t0
        if not (isinstance(points, (tuple, list)) and all(
                isinstance(e, numbers.Real) and math.isfinite(e) for e in points)):
            raise ValueError(f"sing_points_t0 must be a sequence of finite real numbers, "
                             f"got sing_points_t0={points!r}")

    def foot(self, x, t: float):
        """The kind's one characteristic map: where the reference at
        (x, t) reads ic.  x - c*t, x_bar + (x - x_bar)*e^t, or for "hj"
        |x| + c*t, the end of [x - c*t, x + c*t] where an even, unimodal
        ic is smallest.  At -t the foot carries time-0 points to t."""
        if self.kind == "advection-const":
            return x - self.c * t
        if self.kind == "advection-var":
            return self.x_bar + (x - self.x_bar) * math.exp(t)
        return np.abs(x) + self.c * t

    def exact(self, x, t: float):
        """Reference solution at time t (vectorized in x): ic at the foot.

        For "hj" that is the Hopf-Lax minimum of ic over the interval
        when ic is even and unimodal, the assumption exact_antiderivative
        makes too.
        """
        x = np.asarray(x, dtype=float)
        return _dispatch(x, np.asarray(self.ic(self.foot(x, t)), dtype=float))

    def exact_antiderivative(self, x, t: float):
        """Antiderivative in x of the reference solution at time t.

        Available in closed form for every registered problem; used to
        compute exact cell averages without quadrature error.
        """
        F = self.ic.antiderivative
        x = np.asarray(x, dtype=float)
        if self.kind != "hj":  # F at the foot over d(foot)/dx
            slope = math.exp(t) if self.kind == "advection-var" else 1.0
            return _dispatch(x, np.asarray(F(self.foot(x, t)), dtype=float) / slope)
        # hj, the erosion of an even unimodal profile: v(x,t) = ic(|x| + c*t),
        # F at the foot on x >= 0 and its odd continuation about the kink at 0
        Ff = np.asarray(F(self.foot(x, t)), dtype=float)
        F0 = float(F(np.asarray(self.c * t, dtype=float)))
        return _dispatch(x, np.where(x >= 0.0, Ff, 2.0 * F0 - Ff))


def singular_points(problem: ProblemSpec, t: float) -> np.ndarray:
    """Positions of transported kinks/jumps of the reference at time t:
    the foot at -t of each time-0 point.  The hj reference is even, so a
    point p sits at both +-(|p| - c*t), sorted and once each, until c*t
    reaches |p| and it has merged into the kink at 0."""
    pts = np.asarray(problem.sing_points_t0, dtype=float)
    if pts.size == 0:
        return pts
    moved = problem.foot(pts, -t)
    if problem.kind != "hj":
        return moved
    r = np.maximum(moved, 0.0)
    # a set, not np.unique, whose first call imports numpy.ma
    return np.array(sorted(set(np.concatenate([-r[r > 0.0], r]).tolist())))


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
