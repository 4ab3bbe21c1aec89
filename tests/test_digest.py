"""The bit-identity digests of `tools/digest.py`, pinned.

A change that moves either line changes the bits of some run.  When that
is deliberate, CHANGES.md records the old and the new lines and a table,
per run, of what moved; the pins below then follow.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"

OUTPUTS = "873f81ee891b1bd6c58bec3f67df49fd349c90325bef05cd27e3bbf27b6a40f3"
EXTENDED = "1dbd803eb6b6ea12430f69c281e64bf9e348539f94b514b02fcf4ec0ab25ea2f"


def test_every_run_is_bit_identical_to_the_pinned_digests() -> None:
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    outputs, extended = digest.digests()
    assert outputs == OUTPUTS, "outputs digest"
    assert extended == EXTENDED, "outputs, per-step witnesses and thresholds digest"
