"""Behavioral tests for the benign and worst-case message schedulers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.faults import FaultEngine, FaultEvent, FaultKind, FaultPlan
from repro.ids import Message, MessageAssignment
from repro.mac.axioms import check_axioms
from repro.mac.schedulers import (
    CombinedAdversary,
    ContentionScheduler,
    GreyZoneAdversary,
    UniformDelayScheduler,
    WorstCaseAckScheduler,
)
from repro.sim.rng import RandomSource
from repro.topology import line_network, star_network, with_arbitrary_unreliable
from repro.topology.adversarial import (
    combined_lower_bound_network,
    parallel_lines_network,
)

from tests.conftest import FACK, FPROG, run_bmmb, single_source


@pytest.mark.parametrize(
    "make_scheduler",
    [
        lambda rng: UniformDelayScheduler(rng),
        lambda rng: ContentionScheduler(rng),
        lambda rng: WorstCaseAckScheduler(rng, p_unreliable=0.5),
    ],
    ids=["uniform", "contention", "worstcase"],
)
def test_every_scheduler_produces_axiom_clean_executions(make_scheduler):
    rng = RandomSource(77)
    dual = with_arbitrary_unreliable(line_network(12), 6, rng.child("topo"))
    result = run_bmmb(dual, single_source(4), make_scheduler(rng.child("sched")))
    assert result.solved
    report = check_axioms(result.instances, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


def test_uniform_delivers_within_fprog():
    rng = RandomSource(3)
    dual = line_network(8)
    result = run_bmmb(dual, single_source(2), UniformDelayScheduler(rng))
    for inst in result.instances:
        for rtime in inst.rcv_times.values():
            assert rtime - inst.bcast_time <= FPROG + 1e-9


def test_uniform_p_unreliable_zero_never_uses_grey_links():
    rng = RandomSource(3)
    dual = with_arbitrary_unreliable(line_network(10), 8, rng.child("t"))
    result = run_bmmb(
        dual, single_source(2), UniformDelayScheduler(rng.child("s"), p_unreliable=0.0)
    )
    for inst in result.instances:
        for receiver in inst.rcv_times:
            assert receiver in dual.reliable_neighbors(inst.sender)


def test_uniform_p_unreliable_one_always_uses_grey_links():
    rng = RandomSource(3)
    dual = with_arbitrary_unreliable(line_network(10), 8, rng.child("t"))
    result = run_bmmb(
        dual, single_source(1), UniformDelayScheduler(rng.child("s"), p_unreliable=1.0)
    )
    for inst in result.instances:
        expected = dual.gprime_neighbors(inst.sender)
        assert set(inst.rcv_times) == set(expected)


def test_uniform_ack_lag_stays_within_fack():
    rng = RandomSource(3)
    dual = line_network(6)
    result = run_bmmb(
        dual,
        single_source(3),
        UniformDelayScheduler(rng, ack_lag_fraction=1.0),
    )
    assert result.solved
    for inst in result.instances:
        assert inst.ack_time - inst.bcast_time <= FACK + 1e-9


def test_uniform_rejects_bad_parameters():
    rng = RandomSource(3)
    with pytest.raises(SchedulerError):
        UniformDelayScheduler(rng, p_unreliable=1.5)
    with pytest.raises(SchedulerError):
        UniformDelayScheduler(rng, rcv_fraction=0.0)
    with pytest.raises(SchedulerError):
        UniformDelayScheduler(rng, ack_lag_fraction=-0.1)


def test_contention_star_acks_scale_with_contention():
    """Footnote 2's example: on a star where all leaves broadcast, the hub
    receives a message every ~Fprog while individual acks queue up."""
    rng = RandomSource(5)
    n = 9
    dual = star_network(n)
    assignment = MessageAssignment.one_each(list(range(1, n)))
    result = run_bmmb(
        dual, assignment, ContentionScheduler(rng), fack=(n + 2) * FPROG
    )
    assert result.solved
    leaf_instances = [
        inst for inst in result.instances if inst.sender != 0 and inst.bcast_time == 0.0
    ]
    ack_latencies = sorted(
        inst.ack_time - inst.bcast_time for inst in leaf_instances
    )
    # Hub serialization: the slowest initial ack waits for most of the queue.
    assert ack_latencies[-1] >= (len(leaf_instances) / 2) * 0.45 * FPROG
    # Hub progress: its first rcv arrives within one slot.
    hub_rcvs = [
        rtime
        for inst in result.instances
        for v, rtime in inst.rcv_times.items()
        if v == 0 and inst.bcast_time == 0.0
    ]
    assert min(hub_rcvs) <= FPROG + 1e-9


def test_contention_respects_ack_bound_under_heavy_load():
    rng = RandomSource(5)
    n = 12
    dual = star_network(n)
    assignment = MessageAssignment.one_each(list(range(1, n)))
    fack = (n + 2) * FPROG
    result = run_bmmb(dual, assignment, ContentionScheduler(rng), fack=fack)
    assert result.solved
    report = check_axioms(result.instances, dual, fack, FPROG)
    assert report.ok, report.violations[:3]


def test_contention_deadline_flush_rescues_tight_fack():
    """With Fack too small for EDF alone, the flush still meets the bound."""
    rng = RandomSource(5)
    dual = star_network(8)
    assignment = MessageAssignment.one_each(list(range(1, 8)))
    fack = 3.0  # far below contention * Fprog
    result = run_bmmb(dual, assignment, ContentionScheduler(rng), fack=fack)
    assert result.solved
    for inst in result.instances:
        if inst.ack_time is not None:
            assert inst.ack_time - inst.bcast_time <= fack + 1e-9


def test_contention_rejects_bad_parameters():
    rng = RandomSource(5)
    with pytest.raises(SchedulerError):
        ContentionScheduler(rng, slot_fraction=0.0)
    with pytest.raises(SchedulerError):
        ContentionScheduler(rng, deadline_fraction=1.5)


def test_worstcase_acks_at_exactly_fack():
    dual = line_network(5)
    result = run_bmmb(dual, single_source(2), WorstCaseAckScheduler())
    for inst in result.instances:
        assert inst.ack_time - inst.bcast_time == pytest.approx(FACK)


def test_worstcase_slows_bmmb_relative_to_uniform():
    rng = RandomSource(8)
    dual = line_network(10)
    slow = run_bmmb(dual, single_source(3), WorstCaseAckScheduler())
    fast = run_bmmb(dual, single_source(3), UniformDelayScheduler(rng))
    assert slow.completion_time > 3 * fast.completion_time


def test_worstcase_requires_rng_for_unreliable():
    with pytest.raises(SchedulerError, match="rng"):
        WorstCaseAckScheduler(None, p_unreliable=0.5)


def test_worstcase_rejects_bad_rcv_fraction():
    with pytest.raises(SchedulerError):
        WorstCaseAckScheduler(rcv_fraction=1.0)


# ----------------------------------------------------------------------
# Batched fan-out: the adversaries book a broadcast's receivers in one
# deliver_many call.  Each is compared with the per-receiver deliver_at
# booking it replaced, which must give the same execution.
# ----------------------------------------------------------------------
class _PerReceiverWorstCase(WorstCaseAckScheduler):
    def on_bcast(self, instance):
        ctx = self.ctx
        sender = instance.sender
        rcv_time = instance.bcast_time + self.rcv_fraction * ctx.fprog
        for receiver in sorted(ctx.dual.reliable_neighbors(sender)):
            ctx.deliver_at(instance, receiver, rcv_time)
        if self.p_unreliable > 0.0 and self._rng is not None:
            for receiver in sorted(ctx.dual.unreliable_only_neighbors(sender)):
                if self._rng.bernoulli(self.p_unreliable):
                    ctx.deliver_at(instance, receiver, rcv_time)
        ctx.ack_at(instance, instance.bcast_time + ctx.fack)


class _PerReceiverGreyZone:
    """The per-receiver ``on_bcast``/``_instant`` of the Figure 2 family."""

    def on_bcast(self, instance):
        ctx = self.ctx
        mid = getattr(instance.payload, "mid", None)
        if instance.sender in getattr(self, "_blob", ()):
            rcv_time = instance.bcast_time + self.rcv_fraction * ctx.fprog
            for receiver in sorted(ctx.dual.reliable_neighbors(instance.sender)):
                ctx.deliver_at(instance, receiver, rcv_time)
                self._hold(mid, receiver)
            ctx.ack_at(instance, instance.bcast_time + ctx.fack)
            return
        plan = self._frontier_plan(instance.sender, mid)
        if plan is None:
            for receiver in sorted(ctx.dual.reliable_neighbors(instance.sender)):
                ctx.deliver_at(instance, receiver, ctx.now)
                self._hold(mid, receiver)
            ctx.ack_at(instance, ctx.now)
            return
        next_node, diagonal_target = plan
        t = instance.bcast_time
        for receiver in sorted(ctx.dual.reliable_neighbors(instance.sender)):
            when = t + ctx.fack if receiver == next_node else t + 0.0
            ctx.deliver_at(instance, receiver, when)
            self._hold(mid, receiver)
        if diagonal_target is not None:
            ctx.deliver_at(
                instance, diagonal_target, t + self.inject_fraction * ctx.fprog
            )
            self._hold(mid, diagonal_target)
        ctx.ack_at(instance, t + ctx.fack)

    def _hold(self, mid, receiver):
        if mid in self._holders:
            self._holders[mid].add(receiver)


class _PerReceiverGreyZoneAdversary(_PerReceiverGreyZone, GreyZoneAdversary):
    pass


class _PerReceiverCombinedAdversary(_PerReceiverGreyZone, CombinedAdversary):
    pass


def _execution(result):
    """Everything observable about a standard run, comparable across runs."""
    instances = [
        (
            inst.iid,
            inst.sender,
            getattr(inst.payload, "mid", inst.payload),
            inst.bcast_time,
            inst.ack_time,
            inst.abort_time,
            sorted(inst.rcv_times.items()),
        )
        for inst in result.instances
    ]
    return instances, dict(result.deliveries), result.sim_events


@st.composite
def _worstcase_runs(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    # A line of n nodes leaves (n-1)(n-2)/2 pairs for grey edges.
    grey = draw(st.integers(min_value=0, max_value=(n - 1) * (n - 2) // 2))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    dual = with_arbitrary_unreliable(line_network(n), grey, RandomSource(seed, "t"))
    nodes = st.integers(min_value=0, max_value=n - 1)
    sources = draw(st.lists(nodes, min_size=1, max_size=4))
    assignment = MessageAssignment(
        {
            node: tuple(
                Message(f"m{i}", node) for i, s in enumerate(sources) if s == node
            )
            for node in set(sources)
        }
    )
    events = []
    for node in draw(st.lists(nodes, max_size=3, unique=True)):
        at = draw(st.floats(min_value=0.0, max_value=3 * FACK))
        events.append(FaultEvent(at, FaultKind.CRASH, node=node))
        if draw(st.booleans()):
            back = at + draw(st.floats(min_value=0.1, max_value=2 * FACK))
            events.append(FaultEvent(back, FaultKind.RECOVER, node=node))
    grey_edges = [
        (u, v)
        for u in dual.nodes
        for v in dual.unreliable_only_neighbors_sorted(u)
        if u < v
    ]
    if grey_edges and draw(st.booleans()):
        u, v = draw(st.sampled_from(grey_edges))
        up = draw(st.floats(min_value=0.0, max_value=2 * FACK))
        events.append(FaultEvent(up, FaultKind.LINK_UP, edge=(u, v)))
        events.append(FaultEvent(up + FACK, FaultKind.LINK_DOWN, edge=(u, v)))
    p_unreliable = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return dual, assignment, events, p_unreliable, seed


@given(_worstcase_runs(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_batched_worstcase_fanout_equals_per_receiver_booking(case, faulted):
    dual, assignment, events, p_unreliable, seed = case
    outcomes = []
    for scheduler_class in (WorstCaseAckScheduler, _PerReceiverWorstCase):
        rng = RandomSource(seed, "scheduler")
        engine = (
            FaultEngine(dual, FaultPlan.of(events)) if faulted and events else None
        )
        result = run_bmmb(
            dual,
            assignment,
            scheduler_class(rng, p_unreliable=p_unreliable),
            fault_engine=engine,
        )
        outcomes.append((_execution(result), rng.draws))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("depth", [2, 5, 9])
def test_batched_greyzone_fanout_equals_per_receiver_booking(depth):
    net = parallel_lines_network(depth)
    batched = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    reference = run_bmmb(
        net.dual, net.assignment, _PerReceiverGreyZoneAdversary(net)
    )
    assert _execution(batched) == _execution(reference)


@pytest.mark.parametrize("depth, k", [(3, 4), (6, 8)])
def test_batched_combined_fanout_equals_per_receiver_booking(depth, k):
    net = combined_lower_bound_network(depth, k)
    batched = run_bmmb(net.dual, net.assignment, CombinedAdversary(net))
    reference = run_bmmb(
        net.dual, net.assignment, _PerReceiverCombinedAdversary(net)
    )
    assert _execution(batched) == _execution(reference)
