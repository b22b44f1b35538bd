"""Reception engines: registry, selection, and reference/vectorized parity.

Acceptance bar for the engine redesign: the ``vectorized`` engine
produces *identical* receptions to the pure-python reference engine —
same receptions, same slot stats, same RNG draws — across every
radio-family substrate, fault scenario, and seed in the matrix below;
numpy stays strictly optional (``auto`` falls back silently, explicit
``vectorized`` fails with a message naming the install extra); and
non-radio substrates reject engine selection at spec validation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    RunOptions,
    TopologySpec,
    WorkloadSpec,
    run,
)
from repro.radio import (
    RECEPTION_ENGINES,
    engine_names,
    numpy_available,
    resolve_engine,
)
from repro.radio import engines as engines_mod
from repro.radio.sinr import SINRRadioNetwork
from repro.radio.slotted import SlottedRadioNetwork
from repro.sim.rng import RandomSource
from repro.topology.geometric import random_geometric_network

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized engine needs numpy"
)

# The cross-engine equality matrix: every radio-family substrate crossed
# with a representative of every registered fault family.
SUBSTRATES_UNDER_TEST = ("radio", "sinr")
FAULT_MATRIX = (
    FaultSpec("none"),
    FaultSpec("crash_random", {"fraction": 0.2}),
    FaultSpec("flap_random"),
    FaultSpec("churn_poisson"),
)
SEEDS = (7, 23)


def _spec(substrate: str, fault: FaultSpec, seed: int, engine: str):
    return ExperimentSpec(
        name="engine-parity",
        topology=TopologySpec(
            "random_geometric",
            {"n": 18, "side": 2.2, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=fault,
        model=ModelSpec(params={"max_slots": 500_000}, engine=engine),
        substrate=substrate,
        seed=seed,
    )


def _semantic(result) -> dict:
    """Everything observable minus the engine-labelled spec, wall clock,
    live raw handles, and the run-level ``profile`` telemetry (whose
    wall/heap gauges legitimately differ between engines)."""
    skip = {"spec", "wall_time", "raw", "observations"}
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in skip
    }
    fields["observations"] = tuple(
        obs for obs in result.observations if obs.kind != "profile"
    )
    return fields


# ----------------------------------------------------------------------
# Registry + selection
# ----------------------------------------------------------------------
def test_registry_lists_both_engines():
    assert set(RECEPTION_ENGINES.names()) == {"reference", "vectorized"}
    assert "reference" in RECEPTION_ENGINES
    assert len(RECEPTION_ENGINES) == 2
    assert engine_names() == ["auto", "reference", "vectorized"]
    assert engine_names(include_auto=False) == ["reference", "vectorized"]


def test_unknown_engine_lists_registered_names():
    with pytest.raises(ExperimentError, match="registered:.*reference"):
        resolve_engine("warp")


def test_duplicate_and_empty_registrations_are_rejected():
    with pytest.raises(ExperimentError, match="already has an entry"):
        RECEPTION_ENGINES.register("reference")(object())
    with pytest.raises(ExperimentError, match="non-empty"):
        RECEPTION_ENGINES.register("")(object())


def test_auto_prefers_vectorized_when_numpy_importable():
    assert resolve_engine("auto").name == "vectorized"


def test_auto_falls_back_to_reference_without_numpy(monkeypatch):
    monkeypatch.setattr(engines_mod, "_np", None)
    assert not numpy_available()
    assert resolve_engine("auto").name == "reference"


def test_explicit_vectorized_without_numpy_names_the_extra(monkeypatch):
    monkeypatch.setattr(engines_mod, "_np", None)
    with pytest.raises(ExperimentError, match=r"repro\[fast\]"):
        resolve_engine("vectorized")


def test_run_with_auto_engine_matches_reference_semantics(monkeypatch):
    # Selection never changes outcomes: with numpy absent, auto runs the
    # reference loops and the summary is identical to an explicit
    # reference run.
    fault = FaultSpec("none")
    reference = run(_spec("radio", fault, 7, "reference"), RunOptions.summary())
    monkeypatch.setattr(engines_mod, "_np", None)
    fallback = run(_spec("radio", fault, 7, "auto"), RunOptions.summary())
    assert _semantic(fallback) == _semantic(reference)


# ----------------------------------------------------------------------
# Spec surface
# ----------------------------------------------------------------------
def test_modelspec_engine_default_stays_out_of_serialization():
    # Store keys and journal hashes predate the engine field; the default
    # must serialize byte-identically to pre-engine specs.
    assert "engine" not in ModelSpec().to_dict()
    round_tripped = ModelSpec.from_dict(ModelSpec().to_dict())
    assert round_tripped.engine == "reference"
    vec = ModelSpec(engine="vectorized")
    assert vec.to_dict()["engine"] == "vectorized"
    assert ModelSpec.from_dict(vec.to_dict()) == vec


def test_non_radio_substrates_reject_engine_selection():
    spec = _spec("radio", FaultSpec("none"), 1, "vectorized")
    with pytest.raises(ExperimentError, match="supports_reception_engines"):
        run(dataclasses.replace(spec, substrate="standard"))


def test_unknown_engine_in_spec_is_rejected_at_validation():
    with pytest.raises(ExperimentError, match="unknown reception engine"):
        run(_spec("radio", FaultSpec("none"), 1, "warp"))


# ----------------------------------------------------------------------
# Cross-engine equality matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substrate", SUBSTRATES_UNDER_TEST)
@pytest.mark.parametrize(
    "fault", FAULT_MATRIX, ids=lambda f: f.kind
)
@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_matches_reference(substrate, fault, seed):
    reference = run(
        _spec(substrate, fault, seed, "reference"), RunOptions.observed()
    )
    vectorized = run(
        _spec(substrate, fault, seed, "vectorized"), RunOptions.observed()
    )
    assert _semantic(vectorized) == _semantic(reference)


@pytest.mark.parametrize("cls", [SlottedRadioNetwork, SINRRadioNetwork])
def test_network_level_parity_including_rng_state(cls):
    # Below the substrate: identical per-slot receptions AND an identical
    # RNG end state, so engines can be swapped mid-campaign without
    # perturbing any later draw.
    nets = {}
    for engine in ("reference", "vectorized"):
        rng = RandomSource(99, "engine-parity")
        dual = random_geometric_network(
            40, 2.5, 1.6, 0.4, rng.child("topology")
        )
        nets[engine] = cls(dual, rng.child("fading"), engine=engine)
    ref, vec = nets["reference"], nets["vectorized"]
    nodes = ref.dual.nodes_sorted
    pick = RandomSource(5, "transmitters").raw
    for slot in range(25):
        senders = {
            v: f"m{slot}" for v in nodes if pick.random() < 0.3
        }
        assert ref.run_slot(senders) == vec.run_slot(senders)
    assert ref.stats == vec.stats
    assert ref._rng.raw.getstate() == vec._rng.raw.getstate()


def test_reference_sinr_row_path_matches_table_path(monkeypatch):
    # Above SINR_TABLE_MAX_NODES the reference engine recomputes gains
    # per (listener, slot) row instead of holding the O(n^2) table; both
    # paths must decode identically.
    def build(table_max):
        monkeypatch.setattr(engines_mod, "SINR_TABLE_MAX_NODES", table_max)
        rng = RandomSource(3, "sinr-rows")
        dual = random_geometric_network(
            30, 2.4, 1.6, 0.4, rng.child("topology")
        )
        net = SINRRadioNetwork(dual, rng.child("fading"), engine="reference")
        pick = RandomSource(8, "transmitters").raw
        out = []
        for slot in range(20):
            senders = {
                v: f"m{slot}"
                for v in dual.nodes_sorted
                if pick.random() < 0.25
            }
            out.append(net.run_slot(senders))
        return out

    assert build(10_000) == build(0)
