"""Property-based tests for the radio substrate and axiom boundaries."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import FaultSpec, RunOptions, run, smoke_spec
from repro.faults.engine import FaultEngine
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.plan import FaultPlan
from repro.mac.axioms import check_axioms
from repro.mac.messages import InstanceLog
from repro.radio import DecaySchedule, SlottedRadioNetwork
from repro.radio.mac_adapter import minimal_progress_bound
from repro.sim.rng import RandomSource
from repro.topology import DualGraph, line_network, star_network

FACK = 10.0
FPROG = 1.0


# ----------------------------------------------------------------------
# Radio collision semantics
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=2, max_value=10),
    transmitter_mask=st.integers(min_value=1, max_value=1023),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_reception_invariants(n, transmitter_mask, seed):
    dual = line_network(n)
    radio = SlottedRadioNetwork(dual, RandomSource(seed))
    transmitters = {v: f"p{v}" for v in range(n) if transmitter_mask & (1 << v)}
    receptions = radio.run_slot(transmitters)
    for listener, (sender, packet) in receptions.items():
        # Receivers are listeners; senders are G'-neighbors; packet matches.
        assert listener not in transmitters
        assert sender in transmitters
        assert sender in dual.gprime_neighbors(listener)
        assert packet == transmitters[sender]
    # On a reliable-only line, a listener with exactly one transmitting
    # neighbor always receives; with two it never does.
    for v in range(n):
        if v in transmitters:
            continue
        tx_neighbors = [
            u for u in dual.reliable_neighbors(v) if u in transmitters
        ]
        if len(tx_neighbors) == 1:
            assert v in receptions
        elif len(tx_neighbors) == 2:
            assert v not in receptions


@given(
    depth=st.integers(min_value=0, max_value=6),
    phases=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_decay_schedule_always_terminates_exactly(depth, phases, seed):
    sched = DecaySchedule(depth, phases, RandomSource(seed))
    assert sched.total_steps == phases * (depth + 1)
    assert list(sched.plan) == sorted(set(sched.plan))
    assert all(0 <= step < sched.total_steps for step in sched.plan)
    # Slot 0 of each phase always transmits, so at least `phases` sends.
    assert len(sched.plan) >= phases


def _polled_transmit_steps(depth: int, phases: int, rng: RandomSource) -> list[int]:
    """A decay schedule polled one slot at a time: one coin per step."""
    random_f = rng.raw.random
    return [
        step
        for step in range(phases * (depth + 1))
        if random_f() < 2.0 ** (-(step % (depth + 1)))
    ]


@given(
    depth=st.integers(min_value=0, max_value=7),
    phases=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_plan_matches_per_slot_polling(depth, phases, seed):
    polled_rng = RandomSource(seed)
    expected = _polled_transmit_steps(depth, phases, polled_rng)
    rng = RandomSource(seed)
    sched = DecaySchedule(depth, phases, rng)
    assert list(sched.plan) == expected
    assert rng.raw.getstate() == polled_rng.raw.getstate()


# ----------------------------------------------------------------------
# A booked plan dies with its sender
# ----------------------------------------------------------------------
#: Fault scenarios that kill senders mid-schedule (crash-recover replays
#: the payload as a new broadcast while the old plan is still booked) and
#: one that only flaps links.
_SENDER_FAULTS = {
    "crash_random": {"fraction": 0.34, "latest": 0.5, "recover_after": 5.0},
    "churn_poisson": {"join_fraction": 0.2, "leave_fraction": 0.34},
    "flap_random": {"fraction": 1.0, "mean_up": 3.0, "mean_down": 3.0},
}


@pytest.mark.parametrize("fault", sorted(_SENDER_FAULTS))
@pytest.mark.parametrize("substrate", ["radio", "sinr"])
def test_no_rcv_after_the_sender_aborts(substrate, fault):
    """No booked transmission fires after its broadcast was aborted: every
    ``rcv`` of an aborted instance comes from a slot that ended by the
    abort."""
    aborted = 0
    for seed in range(4):
        spec = replace(
            smoke_spec(substrate, seed),
            fault=FaultSpec(fault, _SENDER_FAULTS[fault]),
        )
        layer = run(spec, RunOptions(keep_raw=True)).raw.layer
        for inst in layer.instances:
            if inst.abort_time is None:
                continue
            aborted += 1
            assert all(t <= inst.abort_time for t in inst.rcv_times.values()), (
                seed,
                inst.iid,
            )
    if fault != "flap_random":
        assert aborted > 0


# ----------------------------------------------------------------------
# Transmitter-driven collision pass == the per-listener loop
# ----------------------------------------------------------------------
def _per_listener_slot(dual, transmissions, random_f, p_live, engine):
    """One collision slot walked listener by listener over every node."""
    receptions = {}
    collisions = 0
    for v in dual.nodes_sorted:
        if v in transmissions:
            continue
        if engine is not None and not engine.is_active(v):
            continue
        live_senders = []
        reliable_set = dual.reliable_neighbors(v)
        for u in dual.gprime_neighbors_sorted(v):
            if u not in transmissions:
                continue
            if engine is not None:
                reliable = engine.is_reliable_edge(u, v)
            else:
                reliable = u in reliable_set
            if reliable or random_f() < p_live:
                live_senders.append(u)
        if len(live_senders) == 1:
            sender = live_senders[0]
            receptions[v] = (sender, transmissions[sender])
        elif len(live_senders) > 1:
            collisions += 1
    return receptions, collisions


@st.composite
def _grey_dual_graphs(draw):
    """A random dual graph: each node pair is absent, reliable or grey."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(
        st.lists(st.sampled_from("-rg"), min_size=len(pairs), max_size=len(pairs))
    )
    reliable = [e for e, kind in zip(pairs, kinds) if kind == "r"]
    grey = [e for e, kind in zip(pairs, kinds) if kind == "g"]
    return DualGraph(n, reliable, grey), grey


@given(
    graph=_grey_dual_graphs(),
    data=st.data(),
    faulted=st.booleans(),
    p_live=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=120, deadline=None)
def test_push_pass_matches_per_listener_loop(graph, data, faulted, p_live, seed):
    dual, grey = graph
    nodes = list(dual.nodes_sorted)
    engine = None
    if faulted:
        crashed = data.draw(
            st.lists(st.sampled_from(nodes), max_size=len(nodes) - 1, unique=True)
        )
        flapped = []
        if grey:
            flapped = data.draw(st.lists(st.sampled_from(grey), unique=True))
        events = [FaultEvent(0.0, FaultKind.CRASH, node=v) for v in crashed]
        events += [FaultEvent(0.0, FaultKind.LINK_UP, edge=e) for e in flapped]
        engine = FaultEngine(dual, FaultPlan.of(events))
        engine.advance_to(0.0)
    slots = data.draw(
        st.lists(st.lists(st.sampled_from(nodes), unique=True), min_size=1, max_size=4)
    )
    rng = RandomSource(seed)
    radio = SlottedRadioNetwork(dual, rng, p_unreliable_live=p_live)
    radio.fault_engine = engine
    expected_rng = RandomSource(seed)
    for senders in slots:
        # Descending insertion order: the pass must not follow dict order.
        transmissions = {u: f"p{u}" for u in sorted(senders, reverse=True)}
        expected, expected_collisions = _per_listener_slot(
            dual, transmissions, expected_rng.raw.random, p_live, engine
        )
        assert radio.run_slot(transmissions) == expected
        assert radio.last_stats.collisions == expected_collisions
        assert radio.last_stats.receptions == len(expected)
        assert rng.raw.getstate() == expected_rng.raw.getstate()


# ----------------------------------------------------------------------
# minimal_progress_bound == its quadratic definition
# ----------------------------------------------------------------------
def _progress_bound_by_definition(instances, dual) -> float:
    """The progress-bound definition with every lookup a full scan."""
    insts = list(instances)
    trace_end = 0.0
    for inst in insts:
        times = [inst.bcast_time, *inst.rcv_times.values()]
        times += [inst.ack_time or 0.0, inst.abort_time or 0.0]
        trace_end = max(trace_end, *times)

    def term(inst):
        return min(inst.termination_time, trace_end)

    needed = 0.0
    for inst in insts:
        begin, end = inst.bcast_time, term(inst)
        if end <= begin:
            continue
        for receiver in dual.reliable_neighbors(inst.sender):
            heard = [other for other in insts if receiver in other.rcv_times]
            starts = [begin] + sorted(
                term(other) + 1e-9 for other in heard if begin < term(other) < end
            )
            for s in starts:
                if s >= end:
                    continue
                earliest = min(
                    (other.rcv_times[receiver] for other in heard if term(other) >= s),
                    default=math.inf,
                )
                needed = max(needed, min(earliest - s, end - s))
    return needed


@given(data=st.data(), n=st.integers(min_value=2, max_value=6))
@settings(max_examples=150, deadline=None)
def test_minimal_progress_bound_matches_definition(data, n):
    # Times on a coarse integer grid, so terminations often equal another
    # instance's bcast time or termination exactly: the window edges.
    dual = line_network(n) if data.draw(st.booleans()) else star_network(n)
    log = InstanceLog()
    times = st.integers(min_value=0, max_value=6).map(float)
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        sender = data.draw(st.integers(min_value=0, max_value=n - 1))
        begin = data.draw(times)
        inst = log.new_instance(sender, "m", begin)
        for receiver in data.draw(st.lists(st.integers(0, n - 1), unique=True)):
            if receiver != sender:
                inst.rcv_times[receiver] = begin + data.draw(times)
        end = data.draw(st.sampled_from(["ack", "abort", "pending"]))
        latest = max([begin, *inst.rcv_times.values()])
        if end == "ack":
            inst.ack_time = latest + data.draw(times)
        elif end == "abort":
            inst.abort_time = begin + data.draw(times)
    assert minimal_progress_bound(log, dual) == _progress_bound_by_definition(log, dual)


# ----------------------------------------------------------------------
# Axiom-checker boundary behavior
# ----------------------------------------------------------------------
@given(
    ack_latency=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_ack_bound_boundary_is_respected(ack_latency):
    dual = line_network(3)
    log = InstanceLog()
    inst = log.new_instance(1, "m", 0.0)
    inst.rcv_times.update({0: min(0.5, ack_latency), 2: min(0.5, ack_latency)})
    inst.ack_time = ack_latency
    report = check_axioms(log, dual, FACK, FPROG, check_progress=False)
    assert report.ok == (ack_latency <= FACK + 1e-9)


@given(
    delay=st.floats(min_value=0.01, max_value=9.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_progress_boundary_single_instance(delay):
    """With one lonely instance, the receiver's first rcv at ``delay`` is a
    progress violation iff ``delay > Fprog`` (strictly, within tolerance)."""
    dual = DualGraph(2, [(0, 1)], [])
    log = InstanceLog()
    inst = log.new_instance(0, "m", 0.0)
    inst.rcv_times[1] = delay
    inst.ack_time = delay
    report = check_axioms(log, dual, FACK, FPROG)
    violated = any("progress violation" in v for v in report.violations)
    if delay > FPROG + 1e-6:
        assert violated
    elif delay < FPROG - 1e-6:
        assert not violated


@given(
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_checker_accepts_every_uniform_scheduler_run(data):
    """Random workloads through the real stack always certify."""
    from repro.core.bmmb import BMMBNode
    from repro.ids import MessageAssignment
    from repro.mac.schedulers import UniformDelayScheduler
    from repro.runtime.runner import run_standard

    n = data.draw(st.integers(min_value=2, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=3))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    dual = line_network(n)
    result = run_standard(
        dual,
        MessageAssignment.single_source(0, k),
        lambda _: BMMBNode(),
        UniformDelayScheduler(RandomSource(seed)),
        FACK,
        FPROG,
    )
    assert result.solved
    report = check_axioms(result.instances, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]
