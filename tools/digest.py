"""Print two SHA-256 digests over every run's numerical output.

Both cover 5 problems x 3 schemes x every rung of each problem's ladder.
The first line hashes the outputs: final values, the four error norms,
`witness_max`, the TV series and, for the coupled scheme, the indicator
history.  The second line hashes the same outputs plus each run's
per-step witnesses (`RunResult.witnesses`) and its resolved indicator
thresholds (`delta`, `flat_tol`, `guard`), so it also sees a change in a
step's witness that the maximum hides.  Two checkouts that print the
same digests produce bit-identical runs, so a performance change can
cite this one command as its evidence:

    PYTHONPATH=src python3 tools/digest.py

`tests/test_digest.py` pins both lines.
"""

import hashlib

import numpy as np

from slub.harness import SCHEMES, run_scheme
from slub.problems import get_problem, problem_names


def _update(hashes, arrays) -> None:
    for a in arrays:
        data = np.ascontiguousarray(a, dtype=float).tobytes()
        for h in hashes:
            h.update(data)


def digests() -> tuple:
    """(outputs, extended): the hex digests of the two lines."""
    outputs, extended = hashlib.sha256(), hashlib.sha256()
    for name in problem_names():
        for scheme in SCHEMES:
            for m in get_problem(name).m_ladder:
                r = run_scheme(name, scheme, m)
                e, p = r.errors, r.params
                _update((outputs, extended), (
                    r.values,
                    [e.l1, e.l2, e.linf, e.linf_reg],
                    [r.witness_max],
                    r.tv.values,
                    [] if r.sigma_history is None else r.sigma_history,
                ))
                _update((extended,), (r.witnesses, [p.delta, p.flat_tol, p.guard]))
    return outputs.hexdigest(), extended.hexdigest()


if __name__ == "__main__":
    out, ext = digests()
    print(f"{out}  outputs")
    print(f"{ext}  outputs, per-step witnesses and indicator thresholds")
