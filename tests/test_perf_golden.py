"""Golden same-seed trace tests: optimizations must not change behavior.

The fixtures in ``tests/golden/`` were recorded from the pre-optimization
kernel/topology/fault code (see ``tests/golden/record.py``).  Each test
re-runs the fixed-seed scenario on the current code and compares the
canonical JSON fingerprint **byte for byte** — delivery tables, per-instance
rcv/ack times, round counts, fault metrics, everything observable.

A failure here means an "optimization" changed execution semantics (event
ordering, RNG draw order, cache-visible state).  Fix the optimization; do
not regenerate the fixture.
"""

from __future__ import annotations

import os

import pytest

from tests.golden.record import (
    GOLDEN_DIR,
    SCENARIOS,
    canonical_json,
    fingerprint,
    sweep_fingerprint,
)
from repro.experiments.runner import run


def _load(name: str) -> str:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().strip()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenario_bit_identical(name: str):
    spec = SCENARIOS[name]
    fresh = canonical_json(fingerprint(run(spec)))
    assert fresh == _load(name), (
        f"golden scenario {name!r} diverged from its recorded pre-PR trace"
    )


def test_golden_sweep_bit_identical():
    fresh = canonical_json(sweep_fingerprint())
    assert fresh == _load("sweep_grid")


def test_every_fixture_has_a_scenario():
    """No stale fixtures: every recorded file is still exercised."""
    recorded = {
        fname[: -len(".json")]
        for fname in os.listdir(GOLDEN_DIR)
        if fname.endswith(".json")
    }
    assert recorded == set(SCENARIOS) | {"sweep_grid"}
