"""Print three SHA-256 digests over every run's numerical output.

The first two cover 5 problems x 3 schemes x every rung of each
problem's ladder.  The first line hashes the outputs: final values, the
four error norms, `witness_max`, the TV series and, for the coupled
scheme, the indicator history.  The second line hashes the same outputs
plus each run's per-step witnesses (`RunResult.witnesses`) and its
resolved indicator thresholds (`delta`, `flat_tol`, `guard`), so it also
sees a change in a step's witness that the maximum hides.  The third
line hashes what the second does for `MIXED_SIGN` x 3 schemes x
`MIXED_SIGN_LADDER`: a variable-velocity jump whose Courant numbers
change sign inside the domain (-0.87 to 0.88), the one run that takes
the per-cell Ultra-Bee stencil in both directions; it is not a
registered problem.  Two checkouts that print the same digests produce
bit-identical runs, so a performance change can cite this one command
as its evidence:

    PYTHONPATH=src python3 tools/digest.py

`tests/test_digest.py` pins all three lines.
"""

import hashlib
from dataclasses import replace

import numpy as np

from slub.harness import SCHEMES, run_scheme
from slub.problems import get_problem, ic_jump, problem_names

MIXED_SIGN = replace(get_problem("adv-var"), ic=ic_jump, a=-1.5, b=1.5, x_bar=0.0, T=0.5,
                     delta_factor=0.3, flat_frac=0.12, guard=3, sing_points_t0=(-1.0, 1.0))
MIXED_SIGN_LADDER = (19, 39, 79, 159, 319)


def _update(hashes, arrays) -> None:
    for a in arrays:
        data = np.ascontiguousarray(a, dtype=float).tobytes()
        for h in hashes:
            h.update(data)


def _update_run(outputs, extended, r) -> None:
    """Hash a run's outputs into each of `outputs` and then its
    per-step witnesses and thresholds into `extended` alone."""
    e, p = r.errors, r.params
    _update(outputs, (
        r.values,
        [e.l1, e.l2, e.linf, e.linf_reg],
        [r.witness_max],
        r.tv.values,
        [] if r.sigma_history is None else r.sigma_history,
    ))
    _update((extended,), (r.witnesses, [p.delta, p.flat_tol, p.guard]))


def digests() -> tuple:
    """(outputs, extended, mixed_sign): the hex digests of the three lines."""
    outputs, extended, mixed = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for name in problem_names():
        for scheme in SCHEMES:
            for m in get_problem(name).m_ladder:
                _update_run((outputs, extended), extended, run_scheme(name, scheme, m))
    for scheme in SCHEMES:
        for m in MIXED_SIGN_LADDER:
            _update_run((mixed,), mixed, run_scheme(MIXED_SIGN, scheme, m))
    return outputs.hexdigest(), extended.hexdigest(), mixed.hexdigest()


if __name__ == "__main__":
    out, ext, mixed = digests()
    print(f"{out}  outputs")
    print(f"{ext}  outputs, per-step witnesses and indicator thresholds")
    print(f"{mixed}  the same for the mixed-sign velocity spec")
