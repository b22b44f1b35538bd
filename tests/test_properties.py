"""Property-based tests (hypothesis) on core invariants.

These generate random inputs — event schedules, dual graphs, MMB instances,
scheduler parameters — and check the properties the rest of the system
relies on: kernel ordering, topology constraints, BMMB correctness plus
bound compliance, and axiom-cleanliness of every produced execution.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import bmmb_arbitrary_bound
from repro.core.bmmb import BMMBNode
from repro.ids import MessageAssignment
from repro.mac.axioms import check_axioms
from repro.mac.schedulers import (
    ContentionScheduler,
    UniformDelayScheduler,
    WorstCaseAckScheduler,
)
from repro.runtime.runner import run_standard
from repro.sim import Simulator
from repro.sim.rng import RandomSource
from repro.topology import DualGraph, line_network, with_r_restricted_unreliable

FACK = 12.0
FPROG = 1.0


# ----------------------------------------------------------------------
# Kernel ordering
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_kernel_fires_in_time_priority_fifo_order(events):
    sim = Simulator()
    fired: list[tuple[float, int, int]] = []
    for seq, (t, prio) in enumerate(events):
        sim.schedule_at(
            t,
            lambda t=t, prio=prio, seq=seq: fired.append((t, prio, seq)),
            priority=prio,
        )
    sim.run()
    assert fired == sorted(fired)


# ----------------------------------------------------------------------
# Topology invariants
# ----------------------------------------------------------------------
@st.composite
def random_dual(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reliable = draw(st.lists(st.sampled_from(all_pairs), max_size=2 * n, unique=True))
    extra_candidates = [p for p in all_pairs if p not in set(reliable)]
    extra = (
        draw(st.lists(st.sampled_from(extra_candidates), max_size=n, unique=True))
        if extra_candidates
        else []
    )
    return DualGraph(n, reliable, extra)


@given(random_dual())
@settings(max_examples=60, deadline=None)
def test_dual_graph_partition_invariants(dual):
    for v in dual.nodes:
        reliable = dual.reliable_neighbors(v)
        unreliable = dual.unreliable_only_neighbors(v)
        assert reliable.isdisjoint(unreliable)
        assert reliable | unreliable == dual.gprime_neighbors(v)
        assert v not in dual.gprime_neighbors(v)
    # E ⊆ E' by construction; the symmetric difference matches the count.
    assert dual.unreliable_edge_count >= 0


@given(random_dual())
@settings(max_examples=40, deadline=None)
def test_restriction_radius_is_consistent(dual):
    radius = dual.restriction_radius()
    if radius is None:
        assert not dual.is_r_restricted(dual.n + 1)
    else:
        assert dual.is_r_restricted(radius)
        if radius > 1:
            assert not dual.is_r_restricted(radius - 1)


# ----------------------------------------------------------------------
# BMMB end-to-end properties
# ----------------------------------------------------------------------
@given(
    n=st.integers(min_value=3, max_value=12),
    k=st.integers(min_value=1, max_value=4),
    r=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    scheduler_kind=st.sampled_from(["uniform", "contention", "worstcase"]),
)
@settings(max_examples=40, deadline=None)
def test_bmmb_always_solves_and_is_axiom_clean(n, k, r, seed, scheduler_kind):
    rng = RandomSource(seed, "prop")
    dual = with_r_restricted_unreliable(
        line_network(n), r=r, probability=0.4, rng=rng.child("topo")
    )
    schedulers = {
        "uniform": lambda: UniformDelayScheduler(rng.child("s"), p_unreliable=0.6),
        "contention": lambda: ContentionScheduler(rng.child("s")),
        "worstcase": lambda: WorstCaseAckScheduler(rng.child("s"), p_unreliable=0.4),
    }
    assignment = MessageAssignment.single_source(0, k)
    result = run_standard(
        dual,
        assignment,
        lambda _: BMMBNode(),
        schedulers[scheduler_kind](),
        FACK,
        FPROG,
    )
    assert result.solved
    assert result.broadcast_count == dual.n * k
    assert result.completion_time <= bmmb_arbitrary_bound(
        dual.diameter(), k, FACK
    ) + 1e-9
    report = check_axioms(result.instances, dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_bmmb_delivery_times_monotone_along_line(seed):
    """On a reliable line, m's delivery time is non-decreasing in distance."""
    rng = RandomSource(seed, "mono")
    from repro.topology import line_network

    dual = line_network(10)
    assignment = MessageAssignment.single_source(0, 1)
    result = run_standard(
        dual,
        assignment,
        lambda _: BMMBNode(),
        UniformDelayScheduler(rng.child("s")),
        FACK,
        FPROG,
    )
    times = [result.deliveries.get((v, "m0")) for v in dual.nodes]
    assert all(t is not None for t in times)
    assert times == sorted(times)


# ----------------------------------------------------------------------
# RNG determinism property
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    names=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_rng_child_paths_are_reproducible(seed, names):
    a = RandomSource(seed)
    b = RandomSource(seed)
    for name in names:
        a = a.child(name)
        b = b.child(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
