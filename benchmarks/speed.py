"""Machine-speed probe: the yardstick the end-to-end times are read in.

The machine the benchmark was defined on does not run at one speed: a
fixed loop alternates between states about 1.7x apart, switching on
scales from under a second to minutes, with CPU time tracking wall time
(so it is the core that slows, not the scheduler that preempts).  A
wall time read at one moment therefore says as much about the other
tenants of the host as about the program.

The benchmark times a fixed loop, `probe`, right before and right after
every timed segment, and reads each segment in units of that loop:

    segment time at reference speed = segment seconds * REF_S / probe seconds

The probe mixes what the `slub` kernels do: numpy ufuncs, slicing and
reductions on a 640-element float64 array, plus interpreted float
arithmetic.  It touches nothing of `slub`, so a change to `slub` moves
only the numerator.  REF_S is the probe's median time on the reference
machine (see README.md), so a normalised time reads close to what that
machine shows in its usual state.
"""

from __future__ import annotations

import numpy as np

REF_S = 1.0e-3  # probe seconds that define the reference speed
_ROUNDS = 17
_LOOP = 60

_x = np.linspace(0.0, 1.0, 640) ** 2
_y = np.cos(7.0 * _x)


def _kernel() -> float:
    acc = 0.0
    for _ in range(_ROUNDS):
        d = np.diff(_y, prepend=_y[0])
        lim = np.minimum(np.abs(d), 0.5 * np.abs(_y[::-1] - _y))
        z = np.where(d > 0.0, _y + lim, _y - lim)
        z = np.clip(z, -1.0, 1.0)
        acc += float(np.dot(z, _x)) + float(np.max(np.abs(z[1:] - z[:-1])))
        for i in range(_LOOP):
            acc += (i * 0.5 - acc * 1e-9) * 1e-12
    return acc


def probe(clock) -> float:
    """Seconds one run of the fixed loop takes now."""
    start = clock()
    _kernel()
    return clock() - start
