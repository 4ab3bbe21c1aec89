"""Standalone kernel sweep: microseconds per call at several sizes.

The sweep separates per-call overhead (which dominates at n = 160)
from per-element cost (n = 20000).  Bytes moved and a roofline ratio
are left out on purpose: every working set fits in cache (the largest
ladder array is about 13 KB, the largest sweep array 160 KB), so a
computed byte count would say nothing about memory bandwidth.
"""

from __future__ import annotations

import numpy as np

SIZES = (160, 640, 1600, 20000)
KERNELS = ("ub_step_values", "advect_const_values", "hj_update_values", "classify_regularity")
NU = 0.6
BATCH_S = 0.004  # each batch repeats the call for at least this long


def kernel_inputs(slub, n: int, rng: np.random.Generator) -> dict:
    """Zero-argument calls of each kernel on n values over [-2, 2].

    The HJ node update is reached through `make_operators` for hj-abs,
    the public way to build it, rather than through its table argument.
    """
    grid = slub.grids.build_grid(-2.0, 2.0, n - 1)
    nodes, dx = grid.nodes, grid.dx
    # a hat, a bump, a box and a little noise: every limiter branch and
    # both indicator outcomes occur
    values = slub.problems.ic_mix(2.0 * nodes) + 0.01 * rng.standard_normal(n)
    hj = slub.harness.make_operators(slub.problems.get_problem("hj-abs"), grid, NU * dx)
    params = slub.coupled.RegularityParams(delta=2.0, flat_tol=0.05, guard=3)
    return {
        "ub_step_values": lambda: slub.ultrabee.ub_step_values(values, NU),
        "advect_const_values": lambda: slub.semi_lagrangian.advect_const_values(values, NU),
        "hj_update_values": lambda: hj.node_update(values),
        "classify_regularity": lambda: slub.coupled.classify_regularity(values, dx, params),
    }


class KernelSweep:
    """Times each kernel in batches, one batch per kernel and size per
    round, and keeps each one's fastest batch.  Rounds are meant to be
    spread over a run: this machine's speed swings, and the fastest of
    batches taken at different moments is the steadiest estimate."""

    def __init__(self, slub, seed: int, clock):
        self.clock = clock
        self.calls = {}  # metric name -> (call, repetitions per batch)
        self.best: dict = {}
        rng = np.random.default_rng(seed)
        for n in SIZES:
            inputs = kernel_inputs(slub, n, rng)
            for name in KERNELS:
                fn = inputs[name]
                start = clock()
                fn()
                once = max(clock() - start, 1e-7)
                self.calls[f"kernel.{name}.us_per_call.n{n}"] = (fn, max(1, int(BATCH_S / once)))

    def round(self) -> None:
        clock = self.clock
        for key, (fn, reps) in self.calls.items():
            start = clock()
            for _ in range(reps):
                fn()
            per_call = (clock() - start) / reps
            self.best[key] = min(per_call, self.best.get(key, per_call))

    def result(self) -> dict:
        """{"kernel.<fn>.us_per_call.n<N>": microseconds}."""
        return {key: 1e6 * seconds for key, seconds in self.best.items()}
