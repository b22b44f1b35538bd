"""End-to-end tests for FMMB (paper §4, Theorem 4.1)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.bounds import fmmb_bound_rounds
from repro.core.fmmb import FMMBConfig, run_fmmb
from repro.errors import ExperimentError
from repro.ids import MessageAssignment
from repro.sim.rng import RandomSource
from repro.topology import grid_network, line_network, random_geometric_network


def grey_net(seed, n=25, side=2.5):
    rng = RandomSource(seed, "net")
    return random_geometric_network(
        n, side=side, c=1.6, grey_edge_probability=0.4, rng=rng
    )


@pytest.mark.parametrize("seed", range(5))
def test_fmmb_solves_on_grey_zone_networks(seed):
    dual = grey_net(seed)
    assignment = MessageAssignment.one_each(dual.nodes[:4])
    result = run_fmmb(dual, assignment, fprog=1.0, seed=seed)
    assert result.solved
    assert result.mis_valid
    assert result.completion_time < math.inf


def test_fmmb_solves_on_line_and_grid():
    for dual in (line_network(20), grid_network(5, 5)):
        assignment = MessageAssignment.single_source(0, 3)
        result = run_fmmb(dual, assignment, fprog=1.0, seed=7)
        assert result.solved, dual.name


def test_fmmb_total_time_is_rounds_times_fprog():
    dual = grey_net(1)
    assignment = MessageAssignment.single_source(0, 2)
    result = run_fmmb(dual, assignment, fprog=2.5, seed=1)
    assert result.total_time == pytest.approx(result.total_rounds * 2.5)
    assert result.completion_time <= result.total_time + 2.5


def test_fmmb_round_structure_adds_up():
    dual = grey_net(2)
    assignment = MessageAssignment.single_source(0, 2)
    result = run_fmmb(dual, assignment, fprog=1.0, seed=2)
    assert result.total_rounds == (
        result.mis_result.rounds_used
        + result.gather_result.rounds_used
        + result.spread_result.rounds_used
    )


def test_fmmb_has_no_fack_dependence():
    """FMMB never consults Fack: its round count is a pure function of the
    seed and topology.  (This is the headline property of Theorem 4.1.)"""
    dual = grey_net(3)
    assignment = MessageAssignment.single_source(0, 3)
    a = run_fmmb(dual, assignment, fprog=1.0, seed=3)
    b = run_fmmb(dual, assignment, fprog=100.0, seed=3)  # "Fack" irrelevant
    assert a.total_rounds == b.total_rounds
    assert b.total_time == pytest.approx(a.total_time * 100.0)


def test_fmmb_rounds_within_theorem_41_budget():
    dual = grey_net(4, n=30, side=3.0)
    assignment = MessageAssignment.one_each(dual.nodes[:3])
    result = run_fmmb(dual, assignment, fprog=1.0, seed=4)
    assert result.solved
    budget = fmmb_bound_rounds(dual.diameter(), assignment.k, dual.n, c=1.6)
    assert result.total_rounds <= budget * 5  # generous constant headroom


def test_fmmb_deterministic_given_seed():
    dual = grey_net(5)
    assignment = MessageAssignment.single_source(0, 2)
    a = run_fmmb(dual, assignment, fprog=1.0, seed=5)
    b = run_fmmb(dual, assignment, fprog=1.0, seed=5)
    assert a.total_rounds == b.total_rounds
    assert a.delivery_rounds == b.delivery_rounds


def test_fmmb_multi_message_single_source():
    dual = grey_net(6)
    assignment = MessageAssignment.single_source(dual.nodes[0], 6)
    result = run_fmmb(dual, assignment, fprog=1.0, seed=6)
    assert result.solved


def test_fmmb_rejects_empty_assignment():
    dual = grey_net(7)
    with pytest.raises(ExperimentError):
        run_fmmb(dual, MessageAssignment(), fprog=1.0, seed=7)


def test_fmmb_success_rate_over_seeds():
    """The w.h.p. guarantee, measured: all of a seed batch must solve."""
    dual = grey_net(8)
    assignment = MessageAssignment.one_each(dual.nodes[:3])
    outcomes = [
        run_fmmb(dual, assignment, fprog=1.0, seed=s).solved for s in range(8)
    ]
    assert all(outcomes)


def test_fmmb_on_disconnected_network():
    from repro.topology import DualGraph

    dual = DualGraph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    assignment = MessageAssignment.one_each([0, 4])
    result = run_fmmb(dual, assignment, fprog=1.0, seed=9)
    assert result.solved
    # m0 must not be delivered in the other component.
    assert (5, "m0") not in result.delivery_rounds


def test_fmmb_completion_rounds_bounded_by_total():
    dual = grey_net(10)
    assignment = MessageAssignment.single_source(0, 2)
    result = run_fmmb(dual, assignment, fprog=1.0, seed=10)
    assert 0 <= result.completion_rounds <= result.total_rounds


def test_fmmb_fixed_budget_mode_still_solves():
    cfg = FMMBConfig(oracle_termination=False, max_phases_factor=0.5)
    dual = grey_net(11, n=15, side=2.0)
    assignment = MessageAssignment.single_source(0, 2)
    result = run_fmmb(dual, assignment, fprog=1.0, seed=11, config=cfg)
    # Fixed mode runs the full (reduced) budgets; with these constants the
    # subroutines still complete on a small network.
    assert result.solved
