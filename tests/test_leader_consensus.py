"""Tests for the future-work extensions: leader election and consensus."""

from __future__ import annotations

import pytest

from repro.core.consensus import FloodConsensusNode, consensus_reached
from repro.core.leader import FloodMaxNode, elected_correctly
from repro.errors import AlgorithmError
from repro.mac.axioms import check_axioms
from repro.mac.schedulers import (
    ContentionScheduler,
    UniformDelayScheduler,
    WorstCaseAckScheduler,
)
from repro.runtime.runner import run_protocol
from repro.sim.rng import RandomSource
from repro.topology import (
    grid_network,
    line_network,
    ring_network,
    star_network,
    with_arbitrary_unreliable,
)

FACK = 20.0
FPROG = 1.0


def schedulers(rng):
    return [
        ("uniform", UniformDelayScheduler(rng.child("u"), p_unreliable=0.5)),
        ("contention", ContentionScheduler(rng.child("c"))),
        ("worstcase", WorstCaseAckScheduler(rng.child("w"), p_unreliable=0.4)),
    ]


# ----------------------------------------------------------------------
# FloodMax leader election
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "dual",
    [line_network(10), ring_network(9), star_network(8), grid_network(4, 4)],
    ids=["line", "ring", "star", "grid"],
)
def test_floodmax_elects_max_id(dual):
    rng = RandomSource(1)
    for name, scheduler in schedulers(rng):
        run = run_protocol(
            dual, lambda _: FloodMaxNode(), scheduler, FACK, FPROG
        )
        assert run.quiesced, name
        assert elected_correctly(dual, run.automata), name


def test_floodmax_on_unreliable_network():
    rng = RandomSource(2)
    dual = with_arbitrary_unreliable(line_network(12), 8, rng.child("t"))
    run = run_protocol(
        dual,
        lambda _: FloodMaxNode(),
        UniformDelayScheduler(rng.child("s"), p_unreliable=0.7),
        FACK,
        FPROG,
    )
    assert elected_correctly(dual, run.automata)


def test_floodmax_per_component_leaders():
    from repro.topology import DualGraph

    dual = DualGraph(7, [(0, 1), (1, 2), (4, 5), (5, 6)])
    rng = RandomSource(3)
    run = run_protocol(
        dual, lambda _: FloodMaxNode(), UniformDelayScheduler(rng), FACK, FPROG
    )
    assert run.automata[0].leader == 2
    assert run.automata[4].leader == 6
    assert run.automata[3].leader == 3  # isolated node leads itself


def test_floodmax_message_complexity_bounded():
    """Each node broadcasts at most once per strict improvement ≤ n times."""
    rng = RandomSource(4)
    dual = line_network(15)
    run = run_protocol(
        dual, lambda _: FloodMaxNode(), UniformDelayScheduler(rng), FACK, FPROG
    )
    for node in run.automata.values():
        assert node.broadcasts_sent <= dual.n


def test_floodmax_executions_are_axiom_clean():
    rng = RandomSource(5)
    dual = grid_network(3, 4)
    run = run_protocol(
        dual, lambda _: FloodMaxNode(), ContentionScheduler(rng), FACK, FPROG
    )
    report = check_axioms(run.instances, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


def test_floodmax_rejects_garbage_payload():
    node = FloodMaxNode()
    with pytest.raises(AlgorithmError):
        node.on_receive(None, "junk", 1)  # type: ignore[arg-type]


def test_floodmax_coalesces_improvements_while_sending():
    """A node that learns of 5 then 9 mid-flight floods 9, skipping stale 5."""
    rng = RandomSource(6)
    dual = star_network(10)  # hub hears everyone; improvements race
    run = run_protocol(
        dual,
        lambda _: FloodMaxNode(),
        WorstCaseAckScheduler(rng, p_unreliable=0.0),
        FACK,
        FPROG,
    )
    assert elected_correctly(dual, run.automata)
    hub = run.automata[0]
    # The hub needs at most a couple of broadcasts despite 9 candidate ids.
    assert hub.broadcasts_sent <= 3


# ----------------------------------------------------------------------
# Flood consensus
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "dual",
    [line_network(8), ring_network(7), grid_network(3, 3)],
    ids=["line", "ring", "grid"],
)
def test_consensus_agreement_and_validity(dual):
    rng = RandomSource(7)
    values = {v: f"value-{v % 3}" for v in dual.nodes}
    for name, scheduler in schedulers(rng):
        run = run_protocol(
            dual,
            lambda v: FloodConsensusNode(values[v]),
            scheduler,
            FACK,
            FPROG,
        )
        assert run.quiesced, name
        assert consensus_reached(dual, run.automata), name
        decided = {node.decision for node in run.automata.values()}
        assert decided == {values[max(dual.nodes)]}


def test_consensus_decision_is_max_id_value():
    rng = RandomSource(8)
    dual = line_network(6)
    run = run_protocol(
        dual,
        lambda v: FloodConsensusNode(v * 100),
        UniformDelayScheduler(rng),
        FACK,
        FPROG,
    )
    assert all(node.decision == 500 for node in run.automata.values())


def test_consensus_per_component():
    from repro.topology import DualGraph

    dual = DualGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    rng = RandomSource(9)
    run = run_protocol(
        dual,
        lambda v: FloodConsensusNode(f"v{v}"),
        UniformDelayScheduler(rng),
        FACK,
        FPROG,
    )
    assert consensus_reached(dual, run.automata)
    assert run.automata[0].decision == "v2"
    assert run.automata[3].decision == "v5"


def test_consensus_undecided_before_wakeup_raises():
    node = FloodConsensusNode("x")
    with pytest.raises(AlgorithmError):
        _ = node.decision


def test_consensus_message_complexity_is_n_squared_flood():
    """Every node floods every proposal exactly once: n broadcasts each."""
    rng = RandomSource(10)
    dual = line_network(8)
    run = run_protocol(
        dual,
        lambda v: FloodConsensusNode(v),
        UniformDelayScheduler(rng),
        FACK,
        FPROG,
    )
    assert run.broadcast_count == dual.n * dual.n


def test_consensus_execution_axiom_clean():
    rng = RandomSource(11)
    dual = ring_network(6)
    run = run_protocol(
        dual,
        lambda v: FloodConsensusNode(v),
        ContentionScheduler(rng),
        FACK,
        FPROG,
    )
    report = check_axioms(run.instances, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]
