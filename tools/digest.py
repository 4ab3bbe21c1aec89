"""Print one SHA-256 over every run's numerical output.

The digest covers 5 problems x 3 schemes x every rung of each problem's
ladder: final values, the four error norms, `witness_max`, the TV series
and, for the coupled scheme, the indicator history.  Two checkouts that
print the same digest produce bit-identical runs, so a performance change
can cite this one command as its evidence:

    PYTHONPATH=src python3 tools/digest.py
"""

import hashlib

import numpy as np

from slub.harness import SCHEMES, run_scheme
from slub.problems import get_problem, problem_names


def digest() -> str:
    h = hashlib.sha256()
    for name in problem_names():
        for scheme in SCHEMES:
            for m in get_problem(name).m_ladder:
                r = run_scheme(name, scheme, m)
                e = r.errors
                for a in (
                    r.values,
                    [e.l1, e.l2, e.linf, e.linf_reg],
                    [r.witness_max],
                    r.tv.values,
                    [] if r.sigma_history is None else r.sigma_history,
                ):
                    h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
