"""Unit tests for the standard abstract MAC layer."""

from __future__ import annotations

import pytest

from repro.errors import MACError, SchedulerError, WellFormednessError
from repro.ids import Message
from repro.mac.interfaces import Automaton
from repro.mac.schedulers.base import Scheduler
from repro.mac.standard import StandardMACLayer
from repro.sim import Simulator
from repro.topology import line_network


class RecordingAutomaton(Automaton):
    """Records every callback for assertions."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_wakeup(self, api):
        self.events.append(("wakeup",))

    def on_arrive(self, api, message):
        self.events.append(("arrive", message.mid))

    def on_receive(self, api, payload, sender):
        self.events.append(("rcv", payload, sender))

    def on_ack(self, api, payload):
        self.events.append(("ack", payload))


class ManualScheduler(Scheduler):
    """Exposes instances so tests can drive deliveries explicitly."""

    def __init__(self):
        super().__init__()
        self.instances = []

    def on_bcast(self, instance):
        self.instances.append(instance)


def make_stack(n=4, fack=10.0, fprog=1.0):
    sim = Simulator()
    dual = line_network(n)
    scheduler = ManualScheduler()
    mac = StandardMACLayer(sim, dual, scheduler, fack=fack, fprog=fprog)
    automata = {}
    for v in dual.nodes:
        automata[v] = RecordingAutomaton()
        mac.register(v, automata[v])
    return sim, dual, scheduler, mac, automata


def test_bounds_validation():
    sim = Simulator()
    dual = line_network(3)
    with pytest.raises(MACError):
        StandardMACLayer(sim, dual, ManualScheduler(), fack=1.0, fprog=2.0)
    with pytest.raises(MACError):
        StandardMACLayer(sim, dual, ManualScheduler(), fack=-1.0, fprog=-2.0)


def test_register_twice_rejected():
    sim, dual, sched, mac, _ = make_stack()
    with pytest.raises(MACError, match="twice"):
        mac.register(0, RecordingAutomaton())


def test_register_unknown_node_rejected():
    sim, dual, sched, mac, _ = make_stack()
    with pytest.raises(MACError, match="not in the topology"):
        mac.register(99, RecordingAutomaton())


def test_wakeup_fires_for_every_node():
    sim, dual, sched, mac, automata = make_stack()
    mac.start()
    sim.run()
    for a in automata.values():
        assert ("wakeup",) in a.events


def test_arrival_reaches_node_at_time_zero():
    sim, dual, sched, mac, automata = make_stack()
    mac.start()
    mac.inject_arrival(1, Message("m0", 1))
    sim.run()
    assert ("arrive", "m0") in automata[1].events
    # Wakeup precedes arrive (priority ordering).
    assert automata[1].events.index(("wakeup",)) < automata[1].events.index(
        ("arrive", "m0")
    )


def test_bcast_while_pending_is_wellformedness_error():
    sim, dual, sched, mac, _ = make_stack()
    mac.bcast(1, "a")
    with pytest.raises(WellFormednessError):
        mac.bcast(1, "b")


def test_pending_instance_clears_after_ack():
    sim, dual, sched, mac, _ = make_stack()
    inst = mac.bcast(1, "a")
    assert mac.pending_instance(1) is inst
    for v in (0, 2):
        mac.schedule_delivery(inst, v, 1.0)
    mac.schedule_ack(inst, 2.0)
    sim.run()
    assert mac.pending_instance(1) is None
    assert inst.ack_time == 2.0


def test_delivery_to_non_neighbor_rejected():
    sim, dual, sched, mac, _ = make_stack()
    inst = mac.bcast(0, "a")
    with pytest.raises(SchedulerError, match="G'-neighbor"):
        mac.schedule_delivery(inst, 3, 1.0)


def test_self_delivery_rejected():
    sim, dual, sched, mac, _ = make_stack()
    inst = mac.bcast(0, "a")
    with pytest.raises(SchedulerError, match="self"):
        mac.schedule_delivery(inst, 0, 1.0)


def test_double_delivery_scheduling_rejected():
    sim, dual, sched, mac, _ = make_stack()
    inst = mac.bcast(0, "a")
    mac.schedule_delivery(inst, 1, 1.0)
    with pytest.raises(SchedulerError, match="twice"):
        mac.schedule_delivery(inst, 1, 2.0)


def test_ack_beyond_fack_rejected_at_scheduling():
    sim, dual, sched, mac, _ = make_stack(fack=10.0)
    inst = mac.bcast(0, "a")
    with pytest.raises(SchedulerError, match="acknowledgment bound"):
        mac.schedule_ack(inst, 11.0)


def test_ack_before_all_g_deliveries_fails_at_fire_time():
    sim, dual, sched, mac, _ = make_stack()
    inst = mac.bcast(1, "a")  # neighbors 0 and 2
    mac.schedule_delivery(inst, 0, 1.0)
    mac.schedule_ack(inst, 2.0)  # node 2 never delivered
    with pytest.raises(SchedulerError, match="ack before delivery"):
        sim.run()


def test_rcv_event_invokes_receiver_with_sender_id():
    sim, dual, sched, mac, automata = make_stack()
    inst = mac.bcast(1, "payload")
    mac.schedule_delivery(inst, 2, 1.0)
    mac.schedule_delivery(inst, 0, 1.5)
    mac.schedule_ack(inst, 2.0)
    sim.run()
    assert ("rcv", "payload", 1) in automata[2].events
    assert ("ack", "payload") in automata[1].events


def test_same_time_rcv_precedes_ack():
    sim, dual, sched, mac, automata = make_stack()
    inst = mac.bcast(0, "p")
    mac.schedule_delivery(inst, 1, 3.0)
    mac.schedule_ack(inst, 3.0)
    sim.run()
    assert inst.ack_time == 3.0
    assert inst.rcv_times[1] == 3.0


def test_zero_time_bcast_rcv_ack_chain():
    """The lower-bound proofs use instantaneous segments; verify they work."""
    sim, dual, sched, mac, automata = make_stack()
    inst = mac.bcast(1, "p")
    mac.schedule_delivery(inst, 0, 0.0)
    mac.schedule_delivery(inst, 2, 0.0)
    mac.schedule_ack(inst, 0.0)
    sim.run()
    assert inst.ack_time == 0.0
    assert sim.now == 0.0


def test_delivery_sink_records_deliver_outputs():
    """The layer's ``deliveries`` dict is the one sink of deliver outputs."""
    sim = Simulator()
    dual = line_network(3)
    mac = StandardMACLayer(sim, dual, ManualScheduler(), fack=10.0, fprog=1.0)

    class Deliverer(Automaton):
        def on_arrive(self, api, message):
            api.deliver(message)

    for v in dual.nodes:
        mac.register(v, Deliverer())
    mac.start()
    mac.inject_arrival(0, Message("m0", 0))
    sim.run()
    assert mac.deliveries == {(0, "m0"): 0.0}


def test_duplicate_deliver_output_rejected():
    sim = Simulator()
    dual = line_network(3)
    mac = StandardMACLayer(sim, dual, ManualScheduler(), fack=10.0, fprog=1.0)

    class DoubleDeliverer(Automaton):
        def on_arrive(self, api, message):
            api.deliver(message)
            api.deliver(message)

    mac.register(0, DoubleDeliverer())
    mac.register(1, RecordingAutomaton())
    mac.register(2, RecordingAutomaton())
    mac.start()
    mac.inject_arrival(0, Message("m0", 0))
    with pytest.raises(MACError, match="duplicate deliver"):
        sim.run()


def test_instances_logged_in_bcast_order():
    sim, dual, sched, mac, _ = make_stack()
    mac.bcast(0, "a")
    mac.bcast(1, "b")
    assert [inst.payload for inst in mac.instances] == ["a", "b"]


def test_api_exposes_neighbor_partitions():
    sim = Simulator()
    from repro.topology import DualGraph

    dual = DualGraph(3, [(0, 1)], [(0, 2)])
    mac = StandardMACLayer(sim, dual, ManualScheduler(), fack=10.0, fprog=1.0)
    seen = {}

    class Introspector(Automaton):
        def on_wakeup(self, api):
            seen[api.node_id] = (api.reliable_neighbor_ids, api.gprime_neighbor_ids)

    for v in dual.nodes:
        mac.register(v, Introspector())
    mac.start()
    sim.run()
    assert seen[0] == (frozenset({1}), frozenset({1, 2}))
