"""Pinned payload digests: speed-only changes must not move the model.

SHA-256 of ``canonical_json`` of the ``FleetResult`` payload for the
``smoke`` fleet preset (quick scale, seed 1017, default knobs) under
KSM and VUsion.  The payload carries the simulated clock, the charges,
the merge counts and the fleet telemetry, so any change to the model —
intended or not — changes these digests.  The digests are identical
under both frame stores, both scan kernels, the NumPy and array scan
backends, FrameSan and any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness.fleet import FLEET_PRESETS, run_fleet
from repro.runner import canonical_json

PINNED = {
    "ksm": "60d2c5f4e1af26ce9d46a12c322dbbfc175969ff167ab6ec88d2f9baa50fcf31",
    "vusion": "f654f908044a78c6fa65d08c499c8c417bc68b9512a060135aecb959bd7ee4cc",
}


@pytest.mark.parametrize("system", sorted(PINNED))
def test_smoke_fleet_payload_digest_is_pinned(system):
    result = run_fleet(FLEET_PRESETS["smoke"].spec(system=system))
    digest = hashlib.sha256(
        canonical_json(result.to_payload()).encode("utf-8")
    ).hexdigest()
    assert digest == PINNED[system], (
        f"smoke fleet payload digest under {system!r} changed: "
        f"{digest} != {PINNED[system]}. A digest may change only with a "
        "deliberate model change; log that change and the new digest in "
        "CHANGES.md before updating PINNED."
    )
