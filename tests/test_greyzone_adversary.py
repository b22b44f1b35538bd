"""Tests for the Figure 2 frontier-starving adversary (Lemmas 3.19–3.20)."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import combined_lower_bound, figure2_lower_bound
from repro.errors import SchedulerError
from repro.mac.axioms import check_axioms
from repro.mac.schedulers import (
    CombinedAdversary,
    GreyZoneAdversary,
    UniformDelayScheduler,
)
from repro.sim.rng import RandomSource
from repro.topology.adversarial import (
    combined_lower_bound_network,
    parallel_lines_network,
)

from tests.conftest import FACK, FPROG, run_bmmb


@pytest.mark.parametrize("depth", [3, 6, 12])
def test_adversarial_execution_is_axiom_clean(depth):
    net = parallel_lines_network(depth)
    result = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    assert result.solved
    report = check_axioms(result.instances, net.dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


@pytest.mark.parametrize("depth", [4, 8, 16])
def test_completion_meets_the_lower_bound_floor(depth):
    net = parallel_lines_network(depth)
    result = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    floor = figure2_lower_bound(depth, FACK)
    assert result.completion_time >= floor - 1e-9
    # The adversary achieves the floor exactly: each hop costs one Fack.
    assert result.completion_time == pytest.approx(floor)


def test_time_scales_linearly_with_depth():
    times = []
    for depth in (5, 10, 20):
        net = parallel_lines_network(depth)
        result = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
        times.append(result.completion_time)
    assert times[1] - times[0] == pytest.approx(5 * FACK)
    assert times[2] - times[1] == pytest.approx(10 * FACK)


def test_same_network_is_fast_under_benign_scheduler():
    """The slowness is the scheduler's doing, not the topology's."""
    rng = RandomSource(2)
    net = parallel_lines_network(12)
    adv = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    benign = run_bmmb(net.dual, net.assignment, UniformDelayScheduler(rng))
    assert benign.solved
    assert adv.completion_time > 8 * benign.completion_time


def test_messages_stay_in_their_components():
    net = parallel_lines_network(6)
    result = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    # m0's required set is line A; the adversary leaks m0 into line B via
    # diagonals (legal), but solution status is judged per G-component.
    assert result.solved
    a_set = set(net.a_nodes)
    for node in net.a_nodes:
        assert result.deliveries.get((node, "m0")) is not None
    # Delivery of m0 along line A is paced at one hop per Fack.
    for i, node in enumerate(net.a_nodes):
        expected = i * FACK
        assert result.deliveries.get((node, "m0")) == pytest.approx(expected)
    assert a_set == set(net.a_nodes)


def test_cross_injections_use_only_gprime_edges():
    net = parallel_lines_network(6)
    result = run_bmmb(net.dual, net.assignment, GreyZoneAdversary(net))
    for inst in result.instances:
        for receiver in inst.rcv_times:
            assert net.dual.is_gprime_edge(inst.sender, receiver)


def test_inject_fraction_validation():
    net = parallel_lines_network(4)
    with pytest.raises(SchedulerError):
        GreyZoneAdversary(net, inject_fraction=0.0)
    with pytest.raises(SchedulerError):
        GreyZoneAdversary(net, inject_fraction=1.0)


@pytest.mark.parametrize("depth,k", [(4, 4), (8, 6), (6, 10)])
def test_combined_adversary_meets_composed_floor(depth, k):
    net = combined_lower_bound_network(depth, k)
    result = run_bmmb(net.dual, net.assignment, CombinedAdversary(net))
    assert result.solved
    floor = combined_lower_bound(depth, k, FACK)
    assert result.completion_time >= floor - 1e-9
    report = check_axioms(result.instances, net.dual, FACK, FPROG)
    assert report.ok, report.violations[:3]


def test_combined_adversary_rejects_bad_rcv_fraction():
    net = combined_lower_bound_network(4, 4)
    with pytest.raises(SchedulerError):
        CombinedAdversary(net, rcv_fraction=0.0)
