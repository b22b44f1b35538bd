"""Tests for the BMMB protocol: correctness and the paper's bounds."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    bmmb_arbitrary_bound,
    bmmb_gg_bound,
    bmmb_r_restricted_bound,
)
from repro.core.bmmb import BMMBNode
from repro.errors import AlgorithmError
from repro.ids import MessageAssignment
from repro.mac.axioms import check_axioms
from repro.mac.schedulers import (
    ContentionScheduler,
    UniformDelayScheduler,
    WorstCaseAckScheduler,
)
from repro.sim.rng import RandomSource
from repro.topology import (
    grid_network,
    line_network,
    ring_network,
    star_network,
    tree_network,
    with_arbitrary_unreliable,
    with_r_restricted_unreliable,
)

from tests.conftest import FACK, FPROG, run_bmmb, single_source


@pytest.mark.parametrize(
    "dual",
    [
        line_network(8),
        ring_network(9),
        star_network(7),
        grid_network(3, 4),
        tree_network(2, 3),
    ],
    ids=["line", "ring", "star", "grid", "tree"],
)
def test_bmmb_solves_on_reliable_topologies(dual):
    rng = RandomSource(21)
    result = run_bmmb(dual, single_source(3), UniformDelayScheduler(rng))
    assert result.solved
    assert result.completion_time < float("inf")


def test_bmmb_broadcast_count_is_n_times_k():
    """Every node broadcasts every message exactly once."""
    rng = RandomSource(21)
    dual = grid_network(3, 3)
    k = 4
    result = run_bmmb(dual, single_source(k), UniformDelayScheduler(rng))
    assert result.broadcast_count == dual.n * k


def test_bmmb_delivers_each_message_once_per_node():
    rng = RandomSource(21)
    dual = line_network(6)
    result = run_bmmb(dual, single_source(3), UniformDelayScheduler(rng))
    assert len(result.deliveries) == dual.n * 3


def test_bmmb_multi_origin_assignment():
    rng = RandomSource(21)
    dual = line_network(10)
    assignment = MessageAssignment.one_each([0, 4, 9])
    result = run_bmmb(dual, assignment, UniformDelayScheduler(rng))
    assert result.solved
    assert set(result.per_message_completion) == {"m0", "m1", "m2"}


def test_bmmb_on_disconnected_graph_solves_per_component():
    from repro.topology import DualGraph

    dual = DualGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    rng = RandomSource(21)
    assignment = MessageAssignment.one_each([0, 3])
    result = run_bmmb(dual, assignment, UniformDelayScheduler(rng))
    assert result.solved
    # m0 must not be required (nor delivered) outside its component.
    assert result.deliveries.get((3, "m0")) is None
    assert result.deliveries.get((0, "m1")) is None


def test_bmmb_respects_theorem_316_bound_gg():
    """G' = G: completion within (D + 2k − 2)·Fprog + (k−1)·Fack."""
    dual = line_network(12)
    for k in (1, 3, 6):
        result = run_bmmb(dual, single_source(k), WorstCaseAckScheduler())
        bound = bmmb_gg_bound(dual.diameter(), k, FACK, FPROG)
        assert result.solved
        assert result.completion_time <= bound + 1e-9


@pytest.mark.parametrize("r", [2, 3, 5])
def test_bmmb_respects_theorem_316_bound_r_restricted(r):
    rng = RandomSource(33)
    dual = with_r_restricted_unreliable(
        line_network(14), r=r, probability=0.6, rng=rng.child(f"t{r}")
    )
    k = 4
    result = run_bmmb(
        dual,
        single_source(k),
        WorstCaseAckScheduler(rng.child(f"s{r}"), p_unreliable=0.5),
    )
    bound = bmmb_r_restricted_bound(dual.diameter(), k, r, FACK, FPROG)
    assert result.solved
    assert result.completion_time <= bound + 1e-9


def test_bmmb_respects_theorem_31_bound_arbitrary():
    rng = RandomSource(33)
    dual = with_arbitrary_unreliable(line_network(14), 10, rng.child("t"))
    k = 5
    result = run_bmmb(
        dual,
        single_source(k),
        WorstCaseAckScheduler(rng.child("s"), p_unreliable=0.5),
    )
    bound = bmmb_arbitrary_bound(dual.diameter(), k, FACK)
    assert result.solved
    assert result.completion_time <= bound + 1e-9


def test_bmmb_executions_are_axiom_clean_across_schedulers():
    rng = RandomSource(44)
    dual = with_r_restricted_unreliable(line_network(10), 2, 0.5, rng.child("t"))
    for name, sched in (
        ("uniform", UniformDelayScheduler(rng.child("u"))),
        ("contention", ContentionScheduler(rng.child("c"))),
        ("worstcase", WorstCaseAckScheduler(rng.child("w"), p_unreliable=0.3)),
    ):
        result = run_bmmb(dual, single_source(3), sched)
        report = check_axioms(result.instances, dual, FACK, FPROG)
        assert report.ok, (name, report.violations[:3])


def test_bmmb_is_deterministic_given_seed():
    dual = line_network(8)
    a = run_bmmb(dual, single_source(3), UniformDelayScheduler(RandomSource(1)))
    b = run_bmmb(dual, single_source(3), UniformDelayScheduler(RandomSource(1)))
    assert a.completion_time == b.completion_time
    assert a.broadcast_count == b.broadcast_count


def test_bmmb_single_message_single_node():
    from repro.topology import DualGraph

    dual = DualGraph(1, [])
    rng = RandomSource(1)
    result = run_bmmb(dual, single_source(1), UniformDelayScheduler(rng))
    assert result.solved
    assert result.completion_time == 0.0  # delivered at arrival


def test_bmmb_node_rejects_non_message_payload():
    node = BMMBNode()
    with pytest.raises(AlgorithmError, match="non-Message"):
        node.on_receive(None, "garbage", 3)  # type: ignore[arg-type]


def test_bmmb_queue_is_fifo():
    """Messages are sent in arrival order at the origin."""
    dual = line_network(4)
    result = run_bmmb(dual, single_source(4), WorstCaseAckScheduler())
    origin_instances = [i for i in result.instances if i.sender == 0]
    sent_order = [i.payload.mid for i in origin_instances]
    assert sent_order == ["m0", "m1", "m2", "m3"]


def test_bmmb_duplicate_suppression_under_heavy_grey_traffic():
    rng = RandomSource(9)
    dual = with_arbitrary_unreliable(line_network(10), 15, rng.child("t"))
    result = run_bmmb(
        dual,
        single_source(3),
        UniformDelayScheduler(rng.child("s"), p_unreliable=1.0),
    )
    assert result.solved
    # Still exactly n·k broadcasts despite many duplicate receptions.
    assert result.broadcast_count == dual.n * 3


def test_completion_time_equals_last_required_delivery():
    rng = RandomSource(9)
    dual = line_network(7)
    result = run_bmmb(dual, single_source(2), UniformDelayScheduler(rng))
    last = max(
        result.deliveries.get((v, mid))
        for v in dual.nodes
        for mid in ("m0", "m1")
    )
    assert result.completion_time == pytest.approx(last)
