"""Tests for the low-level radio substrate and the decay MAC adapter."""

from __future__ import annotations

import pytest

from repro.core.bmmb import BMMBNode
from repro.errors import MACError, WellFormednessError
from repro.ids import Message, MessageAssignment
from repro.mac.axioms import check_axioms
from repro.radio import DecaySchedule, RadioMACLayer, SlottedRadioNetwork
from repro.radio.decay import decay_depth_for, recommended_phases
from repro.radio.mac_adapter import minimal_progress_bound
from repro.sim.rng import RandomSource
from repro.topology import DualGraph, line_network, star_network


# ----------------------------------------------------------------------
# Slotted radio semantics
# ----------------------------------------------------------------------
def test_single_transmitter_reaches_all_reliable_neighbors():
    dual = line_network(4)
    radio = SlottedRadioNetwork(dual, RandomSource(1))
    receptions = radio.run_slot({1: "pkt"})
    assert receptions[0] == (1, "pkt")
    assert receptions[2] == (1, "pkt")
    assert 3 not in receptions


def test_two_transmitters_collide_at_common_neighbor():
    dual = line_network(3)  # 0-1-2; node 1 hears both ends
    radio = SlottedRadioNetwork(dual, RandomSource(1))
    receptions = radio.run_slot({0: "a", 2: "b"})
    assert 1 not in receptions  # collision
    assert radio.last_stats.collisions == 1


def test_transmitters_do_not_receive():
    dual = line_network(3)
    radio = SlottedRadioNetwork(dual, RandomSource(1))
    receptions = radio.run_slot({0: "a", 1: "b"})
    assert 0 not in receptions
    assert 1 not in receptions
    assert receptions.get(2) == (1, "b")


def test_unreliable_edges_fade_per_slot():
    dual = DualGraph(3, [(1, 2)], [(0, 2)])  # 0—2 unreliable
    radio = SlottedRadioNetwork(dual, RandomSource(1), p_unreliable_live=0.5)
    outcomes = [bool(radio.run_slot({0: "x"}).get(2)) for _ in range(300)]
    rate = sum(outcomes) / len(outcomes)
    assert 0.35 < rate < 0.65


def test_unreliable_fade_can_break_or_cause_collisions():
    # 1 transmits reliably to 2; 0's unreliable signal sometimes collides.
    dual = DualGraph(3, [(1, 2)], [(0, 2)])
    radio = SlottedRadioNetwork(dual, RandomSource(1), p_unreliable_live=0.5)
    got = [radio.run_slot({0: "a", 1: "b"}).get(2) for _ in range(300)]
    received = [g for g in got if g is not None]
    assert all(g == (1, "b") for g in received)  # only the reliable packet
    assert 0 < len(received) < 300  # collisions happened sometimes


def test_unknown_transmitter_rejected():
    dual = line_network(3)
    radio = SlottedRadioNetwork(dual, RandomSource(1))
    with pytest.raises(MACError, match="unknown transmitter"):
        radio.run_slot({99: "x"})


def test_slot_counter_and_stats():
    dual = line_network(3)
    radio = SlottedRadioNetwork(dual, RandomSource(1))
    assert radio.last_stats is None
    radio.run_slot({})
    radio.run_slot({0: "a"})
    assert radio.slot == 2
    assert radio.last_stats.slot == 1
    assert radio.last_stats.transmitters == 1


# ----------------------------------------------------------------------
# Decay schedules
# ----------------------------------------------------------------------
def test_decay_schedule_length_is_phases_times_depth_plus_one():
    sched = DecaySchedule(depth=3, phases=2, rng=RandomSource(1))
    assert sched.total_steps == 2 * 4
    assert list(sched.plan) == sorted(set(sched.plan))
    assert all(0 <= step < 8 for step in sched.plan)


def test_decay_first_slot_of_each_phase_always_transmits():
    # Slot j transmits with probability 2^-j, so j=0 is certain.
    sched = DecaySchedule(depth=2, phases=3, rng=RandomSource(1))
    for phase in range(3):
        assert phase * 3 in sched.plan


def test_decay_complete_schedule_never_transmits():
    # The plan ends inside the schedule, and building it draws exactly
    # one coin per step, so nothing past the last step is ever drawn.
    rng = RandomSource(1)
    sched = DecaySchedule(depth=1, phases=1, rng=rng)
    assert sched.total_steps == 2
    assert sched.plan[-1] < sched.total_steps
    polled = RandomSource(1).raw
    for _ in range(sched.total_steps):
        polled.random()
    assert rng.raw.getstate() == polled.getstate()


def test_decay_parameter_validation():
    with pytest.raises(MACError):
        DecaySchedule(depth=-1, phases=1, rng=RandomSource(1))
    with pytest.raises(MACError):
        DecaySchedule(depth=1, phases=0, rng=RandomSource(1))
    with pytest.raises(MACError):
        decay_depth_for(0)
    with pytest.raises(MACError):
        recommended_phases(0)


def test_radio_layer_rejects_bad_decay_parameters_and_defaults_only_on_none():
    dual = star_network(6)
    for kwargs, message in (
        ({"phases": 0}, "phases must be >= 1, got 0"),
        ({"phases": -1}, "phases must be >= 1, got -1"),
        ({"depth": -1}, "depth must be >= 0, got -1"),
    ):
        with pytest.raises(MACError, match=message):
            RadioMACLayer(dual, RandomSource(1, "r"), **kwargs)
    default = RadioMACLayer(dual, RandomSource(1, "r"))
    assert default.phases == recommended_phases(dual.n)
    assert RadioMACLayer(dual, RandomSource(1, "r"), phases=1, depth=0).depth == 0


def test_decay_depth_and_phase_helpers_scale_logarithmically():
    assert decay_depth_for(2) == 1
    assert decay_depth_for(16) == 4
    assert recommended_phases(16) < recommended_phases(1024)


# ----------------------------------------------------------------------
# RadioMACLayer end-to-end
# ----------------------------------------------------------------------
def run_bmmb_over_radio(dual, assignment, seed=0, **layer_kwargs):
    layer = RadioMACLayer(dual, RandomSource(seed, "radio"), **layer_kwargs)
    for v in dual.nodes:
        layer.register(v, BMMBNode())
    for node, msgs in sorted(assignment.messages.items()):
        for m in msgs:
            layer.inject_arrival(node, m)
    slots = layer.run(max_slots=500_000)
    return layer, slots


def test_bmmb_over_radio_solves_on_line():
    dual = line_network(6)
    assignment = MessageAssignment.single_source(0, 2)
    layer, slots = run_bmmb_over_radio(dual, assignment, seed=3)
    for v in dual.nodes:
        for mid in ("m0", "m1"):
            assert (v, mid) in layer.deliveries
    assert slots > 0


def test_bmmb_over_radio_solves_on_star():
    dual = star_network(8)
    assignment = MessageAssignment.one_each(list(range(1, 8)))
    layer, _ = run_bmmb_over_radio(dual, assignment, seed=4)
    for v in dual.nodes:
        for m in assignment.all_messages():
            assert (v, m.mid) in layer.deliveries


def test_adaptive_mode_guarantees_deliveries_before_ack():
    dual = star_network(10)
    assignment = MessageAssignment.one_each(list(range(1, 10)))
    layer, _ = run_bmmb_over_radio(dual, assignment, seed=5, adaptive=True)
    bounds = layer.empirical_bounds()
    assert bounds.delivery_success_rate == 1.0
    for inst in layer.instances:
        assert inst.ack_time is not None
        for v in dual.reliable_neighbors(inst.sender):
            assert inst.rcv_times[v] <= inst.ack_time


def test_fixed_mode_reports_success_rate():
    dual = star_network(10)
    assignment = MessageAssignment.one_each(list(range(1, 10)))
    layer, _ = run_bmmb_over_radio(
        dual, assignment, seed=6, adaptive=False, phases=2
    )
    bounds = layer.empirical_bounds()
    assert 0.0 <= bounds.delivery_success_rate <= 1.0


def test_radio_execution_satisfies_abstract_mac_axioms_empirically():
    """The abstraction claim, verified: the radio execution is an admissible
    abstract-MAC execution for its own empirical (Fack, Fprog)."""
    dual = line_network(5)
    assignment = MessageAssignment.single_source(0, 2)
    layer, _ = run_bmmb_over_radio(dual, assignment, seed=7)
    bounds = layer.empirical_bounds()
    report = check_axioms(
        layer.instances, dual, bounds.fack + 1e-6, bounds.fprog + 1e-6
    )
    assert report.ok, report.violations[:3]


def test_footnote2_gap_fack_grows_fprog_stays_flat():
    results = {}
    for n in (6, 20):
        dual = star_network(n)
        assignment = MessageAssignment.one_each(list(range(1, n)))
        layer, _ = run_bmmb_over_radio(dual, assignment, seed=8)
        results[n] = layer.empirical_bounds()
    fack_growth = results[20].fack / results[6].fack
    fprog_growth = results[20].fprog / max(results[6].fprog, 1e-9)
    assert fack_growth > 2.0
    assert fprog_growth < fack_growth


def test_radio_bcast_wellformedness():
    dual = line_network(3)
    layer = RadioMACLayer(dual, RandomSource(9, "r"))
    layer.register(0, BMMBNode())
    layer.bcast(0, Message("m0", 0))
    with pytest.raises(WellFormednessError):
        layer.bcast(0, Message("m1", 0))


def test_radio_register_validation():
    dual = line_network(3)
    layer = RadioMACLayer(dual, RandomSource(9, "r"))
    layer.register(0, BMMBNode())
    with pytest.raises(MACError, match="twice"):
        layer.register(0, BMMBNode())
    with pytest.raises(MACError, match="not in the topology"):
        layer.register(99, BMMBNode())


def test_minimal_progress_bound_of_empty_log_is_zero():
    from repro.mac.messages import InstanceLog

    assert minimal_progress_bound(InstanceLog(), line_network(3)) == 0.0


def test_run_respects_max_slots():
    dual = star_network(12)
    assignment = MessageAssignment.one_each(list(range(1, 12)))
    layer = RadioMACLayer(dual, RandomSource(10, "r"))
    for v in dual.nodes:
        layer.register(v, BMMBNode())
    for node, msgs in sorted(assignment.messages.items()):
        for m in msgs:
            layer.inject_arrival(node, m)
    slots = layer.run(max_slots=10)
    assert slots == 10
