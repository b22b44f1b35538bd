"""Tests for the slotted-rounds layer and its delivery contract."""

from __future__ import annotations

import pytest

from repro.errors import MACError
from repro.mac.rounds import (
    AdversarialRoundScheduler,
    RandomRoundScheduler,
    RoundAutomaton,
    SlottedRoundEngine,
)
from repro.sim.rng import RandomSource
from repro.topology import DualGraph, line_network, star_network


def deliveries_for(scheduler, dual, intents, rounds=200):
    """Collect delivery outcomes over many rounds for distribution checks."""
    return [scheduler.deliveries(r, intents, dual) for r in range(rounds)]


def test_silent_node_with_broadcasting_g_neighbor_always_receives():
    rng = RandomSource(1)
    dual = line_network(3)
    sched = RandomRoundScheduler(rng)
    for r in range(100):
        received = sched.deliveries(r, {0: "x"}, dual)
        assert received.get(1), "node 1 must receive: G-neighbor 0 broadcasts"


def test_receiver_gets_exactly_one_message_per_round():
    rng = RandomSource(1)
    dual = star_network(6)
    intents = {v: f"p{v}" for v in range(1, 6)}
    sched = RandomRoundScheduler(rng)
    for r in range(50):
        received = sched.deliveries(r, intents, dual)
        assert len(received[0]) == 1


def test_broadcasters_do_not_receive():
    rng = RandomSource(1)
    dual = line_network(4)
    sched = RandomRoundScheduler(rng)
    received = sched.deliveries(0, {1: "a", 2: "b"}, dual)
    assert 1 not in received
    assert 2 not in received


def test_delivered_message_comes_from_a_gprime_broadcaster():
    rng = RandomSource(1)
    dual = DualGraph(4, [(0, 1), (2, 3)], [(0, 2)])
    sched = RandomRoundScheduler(rng)
    for r in range(100):
        received = sched.deliveries(r, {0: "x", 3: "y"}, dual)
        for node, events in received.items():
            for sender, payload in events:
                assert sender in dual.gprime_neighbors(node)
                assert payload == {0: "x", 3: "y"}[sender]


def test_unreliable_only_delivery_is_probabilistic():
    rng = RandomSource(1)
    dual = DualGraph(3, [(1, 2)], [(0, 2)])  # 0—2 unreliable only
    sched = RandomRoundScheduler(rng, p_unreliable_only=0.5)
    outcomes = [bool(sched.deliveries(r, {0: "x"}, dual).get(2)) for r in range(300)]
    rate = sum(outcomes) / len(outcomes)
    assert 0.35 < rate < 0.65


def test_unreliable_only_delivery_can_be_disabled():
    rng = RandomSource(1)
    dual = DualGraph(3, [(1, 2)], [(0, 2)])
    sched = RandomRoundScheduler(rng, p_unreliable_only=0.0)
    for r in range(50):
        assert not sched.deliveries(r, {0: "x"}, dual).get(2)


def test_random_scheduler_choice_is_roughly_uniform():
    rng = RandomSource(1)
    dual = star_network(3)  # hub 0, leaves 1, 2
    sched = RandomRoundScheduler(rng)
    senders = []
    for r in range(400):
        received = sched.deliveries(r, {1: "a", 2: "b"}, dual)
        senders.append(received[0][0][0])
    rate = senders.count(1) / len(senders)
    assert 0.35 < rate < 0.65


def test_adversarial_scheduler_prefers_unreliable_senders():
    rng = RandomSource(1)
    dual = DualGraph(4, [(0, 1), (2, 3)], [(1, 3)])
    sched = AdversarialRoundScheduler(rng)
    # Node 1 hears G-neighbor 0 and unreliable-only neighbor 3; the
    # adversary always picks 3.
    for r in range(50):
        received = sched.deliveries(r, {0: "x", 3: "y"}, dual)
        assert received[1] == [(3, "y")]


def test_empty_intents_produce_no_deliveries():
    rng = RandomSource(1)
    dual = line_network(4)
    sched = RandomRoundScheduler(rng)
    assert sched.deliveries(0, {}, dual) == {}


class CountingNode(RoundAutomaton):
    """Broadcasts its id every round; counts receptions."""

    def __init__(self, node_id, broadcast):
        self.node_id = node_id
        self.broadcast = broadcast
        self.received = []
        self.rounds_seen = []

    def begin_round(self, round_index):
        self.rounds_seen.append(round_index)
        return self.node_id if self.broadcast else None

    def end_round(self, round_index, received):
        self.received.extend(received)


def test_engine_runs_rounds_and_tracks_time():
    rng = RandomSource(1)
    dual = line_network(3)
    engine = SlottedRoundEngine(dual, RandomRoundScheduler(rng), fprog=2.0)
    nodes = {v: CountingNode(v, broadcast=(v == 0)) for v in dual.nodes}
    for v, node in nodes.items():
        engine.attach(v, node)
    engine.run(5)
    assert engine.round_index == 5
    assert engine.elapsed_time == 10.0
    assert nodes[1].rounds_seen == [0, 1, 2, 3, 4]
    assert len(nodes[1].received) == 5  # G-neighbor of a broadcaster


def test_engine_requires_all_nodes_attached():
    rng = RandomSource(1)
    dual = line_network(3)
    engine = SlottedRoundEngine(dual, RandomRoundScheduler(rng), fprog=1.0)
    engine.attach(0, CountingNode(0, False))
    with pytest.raises(MACError, match="without automata"):
        engine.run_round()


def test_engine_rejects_double_attach():
    rng = RandomSource(1)
    dual = line_network(3)
    engine = SlottedRoundEngine(dual, RandomRoundScheduler(rng), fprog=1.0)
    engine.attach(0, CountingNode(0, False))
    with pytest.raises(MACError, match="twice"):
        engine.attach(0, CountingNode(0, False))


def test_engine_rejects_nonpositive_fprog():
    rng = RandomSource(1)
    with pytest.raises(MACError):
        SlottedRoundEngine(line_network(3), RandomRoundScheduler(rng), fprog=0.0)
