"""Radio reception: one pass per model, checked against listener walks.

Each radio model has one pure-python reception pass, driven by the
slot's transmitters (:func:`repro.radio.slotted._slotted_reference_pass`,
:func:`repro.radio.sinr._sinr_reference_pass`).  The oracles below walk
every listener instead, the way the passes were first written.  The
transmitter-driven passes must match them slot by slot — same
receptions, same collision counts, same RNG draws — with and without
crashed listeners, on both SINR gain paths, and through whole runs on
every radio-family substrate under every fault family.  A spec that
still selects a reception engine is a typed error.
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
    smoke_spec,
)
from repro.radio import sinr as sinr_mod
from repro.radio import slotted as slotted_mod
from repro.radio.sinr import MIN_DISTANCE, SINRRadioNetwork
from repro.radio.slotted import SlottedRadioNetwork
from repro.sim.rng import RandomSource
from repro.topology.geometric import random_geometric_network
from tests.test_properties_radio import _per_listener_slot

SUBSTRATES_UNDER_TEST = ("radio", "sinr")
FAULT_MATRIX = (
    FaultSpec("none"),
    FaultSpec("crash_random", {"fraction": 0.2}),
    FaultSpec("flap_random"),
    FaultSpec("churn_poisson"),
)
SEEDS = (7, 23)


# ----------------------------------------------------------------------
# Listener-walk oracles
# ----------------------------------------------------------------------
def _collision_listener_walk(network):
    """Every listener in turn, one fading coin per transmitting grey
    G'-neighbor (the property tests' per-listener loop)."""

    def run_pass(transmissions):
        return _per_listener_slot(
            network.dual,
            transmissions,
            network._rng.raw.random,
            network.p_unreliable_live,
            network.fault_engine,
        )

    return run_pass


def _sinr_listener_walk(network):
    """The SINR decode listener by listener, as it was first written."""
    dual = network.dual
    positions = dual.positions
    power = network.power
    alpha = network.alpha
    beta = network.beta
    noise = network.noise
    table = (
        sinr_mod._sinr_gain_table(network)
        if dual.n <= sinr_mod.SINR_TABLE_MAX_NODES
        else None
    )

    def run_pass(transmissions):
        engine = network.fault_engine
        senders = sorted(transmissions)
        receptions = {}
        collisions = 0
        for v in dual.nodes_sorted:
            if v in transmissions:
                continue
            if engine is not None and not engine.is_active(v):
                continue
            if table is not None:
                row = table[v]
            else:
                vx, vy = positions[v]
                row = {}
                for u in senders:
                    ux, uy = positions[u]
                    dist = max(
                        ((vx - ux) ** 2 + (vy - uy) ** 2) ** 0.5, MIN_DISTANCE
                    )
                    row[u] = power * dist**-alpha
            total = 0.0
            for u in senders:
                total += row[u]
            if total <= 0.0:
                continue
            neighbors = dual.gprime_neighbors(v)
            best = None
            best_gain = 0.0
            for u in senders:
                if u not in neighbors:
                    continue
                signal = row[u]
                if signal < beta * (noise + total - signal):
                    continue
                if best is None or signal > best_gain:
                    best = u
                    best_gain = signal
            if best is not None:
                receptions[v] = (best, transmissions[best])
            elif any(u in neighbors for u in senders):
                collisions += 1
        return receptions, collisions

    return run_pass


ORACLES = {
    SlottedRadioNetwork: _collision_listener_walk,
    SINRRadioNetwork: _sinr_listener_walk,
}


class _CrashedNodes:
    """A fault engine stand-in: the given nodes are down, no edge flaps."""

    def __init__(self, dual, down):
        self._down = frozenset(down)
        self._reliable = dual.reliable_adjacency

    def is_active(self, v):
        return v not in self._down

    def is_reliable_edge(self, u, v):
        return u in self._reliable[v]


def _network_pair(cls, seed=99):
    """Two identically seeded networks; the second runs the oracle."""
    nets = []
    for _ in range(2):
        rng = RandomSource(seed, "engine-parity")
        dual = random_geometric_network(
            40, 2.5, 1.6, 0.4, rng.child("topology")
        )
        nets.append(cls(dual, rng.child("fading")))
    live, oracle = nets
    oracle._slot_pass = ORACLES[cls](oracle)
    return live, oracle


def _drive(live, oracle, slots=30, down=()):
    """Run both networks on the same random transmitter sets, from empty
    to dense, and compare every slot's receptions."""
    nodes = [v for v in live.dual.nodes_sorted if v not in down]
    pick = RandomSource(5, "transmitters").raw
    densities = (0.0, 0.05, 0.15, 0.3, 0.6)
    receptions = collisions = 0
    for slot in range(slots):
        p = densities[slot % len(densities)]
        senders = {v: f"m{slot}" for v in nodes if pick.random() < p}
        assert live.run_slot(senders) == oracle.run_slot(senders), slot
        assert live.last_stats == oracle.last_stats, slot
        receptions += live.last_stats.receptions
        collisions += live.last_stats.collisions
    assert receptions > 0
    assert collisions > 0


# ----------------------------------------------------------------------
# Slot-level parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SlottedRadioNetwork, SINRRadioNetwork])
def test_network_level_parity_including_rng_state(cls):
    # Identical per-slot receptions and slot stats AND an identical RNG
    # end state, so no later draw moves.
    live, oracle = _network_pair(cls)
    _drive(live, oracle)
    assert live._rng.raw.getstate() == oracle._rng.raw.getstate()


@pytest.mark.parametrize("table_max", [10_000, 0], ids=["table", "rows"])
@pytest.mark.parametrize("crashed", [False, True], ids=["live", "crashed"])
def test_transmitter_driven_sinr_pass_equals_listener_walk(
    monkeypatch, table_max, crashed
):
    monkeypatch.setattr(sinr_mod, "SINR_TABLE_MAX_NODES", table_max)
    live, oracle = _network_pair(SINRRadioNetwork, seed=41)
    down = ()
    if crashed:
        down = live.dual.nodes_sorted[::4]
        live.fault_engine = _CrashedNodes(live.dual, down)
        oracle.fault_engine = _CrashedNodes(oracle.dual, down)
    _drive(live, oracle, slots=40, down=down)


def test_reference_sinr_row_path_matches_table_path(monkeypatch):
    # Above SINR_TABLE_MAX_NODES the pass recomputes gains per
    # (listener, slot) row instead of holding the O(n^2) table; both
    # paths must decode identically.
    def build(table_max):
        monkeypatch.setattr(sinr_mod, "SINR_TABLE_MAX_NODES", table_max)
        rng = RandomSource(3, "sinr-rows")
        dual = random_geometric_network(
            30, 2.4, 1.6, 0.4, rng.child("topology")
        )
        net = SINRRadioNetwork(dual, rng.child("fading"))
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


# ----------------------------------------------------------------------
# Run-level parity: every radio-family substrate x fault family
# ----------------------------------------------------------------------
def _spec(substrate: str, fault: FaultSpec, seed: int):
    return ExperimentSpec(
        name="engine-parity",
        topology=TopologySpec(
            "random_geometric",
            {"n": 18, "side": 2.2, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=fault,
        model=ModelSpec(params={"max_slots": 500_000}),
        substrate=substrate,
        seed=seed,
    )


def _semantic(result) -> dict:
    """Everything observable minus the wall clock, live raw handles, and
    the run-level ``profile`` telemetry."""
    skip = {"wall_time", "raw", "observations"}
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in skip
    }
    fields["observations"] = tuple(
        obs for obs in result.observations if obs.kind != "profile"
    )
    return fields


@pytest.mark.parametrize("substrate", SUBSTRATES_UNDER_TEST)
@pytest.mark.parametrize("fault", FAULT_MATRIX, ids=lambda f: f.kind)
@pytest.mark.parametrize("seed", SEEDS)
def test_runs_match_listener_walk_oracles(monkeypatch, substrate, fault, seed):
    spec = _spec(substrate, fault, seed)
    live = run(spec, RunOptions.observed())
    monkeypatch.setattr(
        slotted_mod, "_slotted_reference_pass", _collision_listener_walk
    )
    monkeypatch.setattr(sinr_mod, "_sinr_reference_pass", _sinr_listener_walk)
    oracle = run(spec, RunOptions.observed())
    assert _semantic(live) == _semantic(oracle)


# ----------------------------------------------------------------------
# Spec surface: no engine to select
# ----------------------------------------------------------------------
def test_modelspec_engine_default_stays_out_of_serialization():
    # Store keys and journal hashes predate the engine field; a spec
    # serializes without it, and a stored default still loads.
    assert "engine" not in {f.name for f in dataclasses.fields(ModelSpec)}
    assert "engine" not in ModelSpec().to_dict()
    assert ModelSpec.from_dict({"engine": "reference"}) == ModelSpec()
    assert ModelSpec.from_dict(ModelSpec().to_dict()) == ModelSpec()


def test_vectorized_engine_in_a_spec_is_a_typed_error():
    with pytest.raises(ExperimentError, match="reception engines are gone"):
        ModelSpec.from_dict({"engine": "vectorized"})
    data = smoke_spec("sinr").to_dict()
    data["model"]["engine"] = "vectorized"
    with pytest.raises(ExperimentError, match="reception engines are gone"):
        ExperimentSpec.from_dict(data)


def test_non_radio_substrates_reject_engine_selection():
    data = smoke_spec("standard").to_dict()
    data["model"]["engine"] = "auto"
    with pytest.raises(ExperimentError, match="reception engines are gone"):
        ExperimentSpec.from_dict(data)


def test_unknown_engine_in_spec_is_rejected_at_validation():
    with pytest.raises(ExperimentError, match="'warp'"):
        ModelSpec.from_dict({"engine": "warp"})
