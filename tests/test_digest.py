"""The bit-identity digests of `tools/digest.py`, pinned, and the
mixed-sign velocity ladder behind its third line, pinned by value.

A change that moves any line changes the bits of some run.  When that
is deliberate, CHANGES.md records the old and the new lines and a table,
per run, of what moved; the pins below then follow.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from slub.harness import convergence_table, make_operators, resolve_grid, run_scheme, time_ladder

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"

OUTPUTS = "873f81ee891b1bd6c58bec3f67df49fd349c90325bef05cd27e3bbf27b6a40f3"
EXTENDED = "1dbd803eb6b6ea12430f69c281e64bf9e348539f94b514b02fcf4ec0ab25ea2f"
MIXED_SIGN_DIGEST = "696c7387f8909afc758d82fae770fbe629305d6ed63b46557110ac8a975da95b"


def _load_digest():
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


digest = _load_digest()


def test_every_run_is_bit_identical_to_the_pinned_digests() -> None:
    outputs, extended, mixed = digest.digests()
    assert outputs == OUTPUTS, "outputs digest"
    assert extended == EXTENDED, "outputs, per-step witnesses and thresholds digest"
    assert mixed == MIXED_SIGN_DIGEST, "mixed-sign velocity spec digest"


def test_the_mixed_sign_spec_reads_both_stencil_directions() -> None:
    """Its cell Courant numbers change sign (-0.87 to 0.88 at m = 159),
    so the per-cell Ultra-Bee stepper gathers its stencil by index."""
    p = digest.MIXED_SIGN
    for m in digest.MIXED_SIGN_LADDER:
        dt, _ = time_ladder(p, m)
        nu = make_operators(p, resolve_grid(p, m), dt).nu_cell
        assert nu.min() < -0.7 and nu.max() > 0.7, m


# The l1 errors over MIXED_SIGN_LADDER, to 5 significant digits.
MIXED_SIGN_L1 = {
    "sl": (2.2602e-1, 1.5398e-1, 1.0969e-1, 7.8833e-2, 5.5606e-2),
    "ub": (6.5789e-2, 2.7972e-2, 1.3234e-2, 7.0231e-3, 3.6455e-3),
    "coupled": (1.5789e-1, 7.6923e-2, 3.7975e-2, 1.8868e-2, 1.0170e-2),
}


@pytest.mark.parametrize("scheme", sorted(MIXED_SIGN_L1))
def test_mixed_sign_ladder_is_pinned(scheme: str) -> None:
    table = convergence_table(digest.MIXED_SIGN, scheme, digest.MIXED_SIGN_LADDER)
    np.testing.assert_allclose(table.errors(), MIXED_SIGN_L1[scheme], rtol=5e-5)
    if scheme == "coupled":  # first order on the jump, the sl scheme's order 1/2 left behind
        np.testing.assert_allclose(table.orders(), [1.00, 1.00, 1.00, 0.89], atol=5e-3)
    for m in digest.MIXED_SIGN_LADDER:
        r = run_scheme(digest.MIXED_SIGN, scheme, m)
        assert r.witness_max <= 1e-12, (m, r.witness_max)
        assert r.tv.ok, m


def test_mixed_sign_coupled_run_switches_on_every_step() -> None:
    """About 20 irregular nodes per step at m = 159: the run is not its
    sl run, as every coupled run of adv-var at m >= 39 is."""
    r = run_scheme(digest.MIXED_SIGN, "coupled", 159)
    irregular = np.count_nonzero(r.sigma_history[1:] == 0, axis=1)
    assert irregular.min() > 0
    assert round(float(irregular.mean()), 1) == 20.1
