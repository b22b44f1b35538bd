"""Tests for the experiment runner and result assembly."""

from __future__ import annotations

import math

import pytest

from repro.core.bmmb import BMMBNode
from repro.errors import ExperimentError
from repro.experiments import RunOptions, run
from repro.experiments.substrates import smoke_spec
from repro.ids import MessageAssignment
from repro.mac.enhanced import EnhancedMACLayer
from repro.mac.schedulers import UniformDelayScheduler, WorstCaseAckScheduler
from repro.runtime.runner import run_standard
from repro.runtime.validate import mmb_outcome, required_deliveries
from repro.sim.rng import RandomSource
from repro.topology import DualGraph, line_network

from tests.conftest import FACK, FPROG, run_bmmb, single_source


def test_empty_assignment_rejected():
    dual = line_network(4)
    with pytest.raises(ExperimentError, match="k >= 1"):
        run_standard(
            dual,
            MessageAssignment(),
            lambda _: BMMBNode(),
            WorstCaseAckScheduler(),
            FACK,
            FPROG,
        )


def test_unknown_assignment_node_rejected():
    dual = line_network(4)
    with pytest.raises(ExperimentError, match="unknown node"):
        run_standard(
            dual,
            MessageAssignment.single_source(99, 1),
            lambda _: BMMBNode(),
            WorstCaseAckScheduler(),
            FACK,
            FPROG,
        )


def test_max_time_truncates_run():
    dual = line_network(20)
    result = run_bmmb(dual, single_source(2), WorstCaseAckScheduler(), max_time=5.0)
    assert not result.solved
    assert result.completion_time == math.inf


def test_keep_instances_false_drops_log():
    rng = RandomSource(1)
    dual = line_network(5)
    result = run_bmmb(
        dual, single_source(2), UniformDelayScheduler(rng), keep_instances=False
    )
    assert result.solved
    assert result.instances is None
    assert result.broadcast_count == dual.n * 2


def test_result_counts_are_consistent():
    rng = RandomSource(1)
    dual = line_network(6)
    result = run_bmmb(dual, single_source(2), UniformDelayScheduler(rng))
    assert result.broadcast_count == len(list(result.instances))
    assert result.rcv_count == sum(
        len(inst.rcv_times) for inst in result.instances
    )
    assert result.sim_events > 0
    assert result.wall_time >= 0.0


def test_per_message_completion_covers_all_messages():
    rng = RandomSource(1)
    dual = line_network(6)
    result = run_bmmb(dual, single_source(3), UniformDelayScheduler(rng))
    assert set(result.per_message_completion) == {"m0", "m1", "m2"}
    assert result.completion_time == max(result.per_message_completion.values())


def test_runner_works_on_enhanced_layer():
    rng = RandomSource(1)
    dual = line_network(6)
    result = run_standard(
        dual,
        single_source(2),
        lambda _: BMMBNode(),
        UniformDelayScheduler(rng),
        FACK,
        FPROG,
        mac_class=EnhancedMACLayer,
    )
    assert result.solved


def test_validate_helpers_agree_with_result():
    rng = RandomSource(1)
    dual = line_network(6)
    assignment = single_source(2)
    result = run_bmmb(dual, assignment, UniformDelayScheduler(rng))
    outcome = mmb_outcome(dual, assignment, result.deliveries)
    assert outcome == result.outcome
    assert outcome.solved and outcome.met == outcome.required == 2 * dual.n
    req = required_deliveries(dual, assignment)
    assert req["m0"] == frozenset(dual.nodes)


def test_missing_deliveries_reports_gap_on_truncated_run():
    dual = line_network(20)
    assignment = single_source(1)
    result = run_bmmb(dual, assignment, WorstCaseAckScheduler(), max_time=0.5)
    outcome = mmb_outcome(dual, assignment, result.deliveries)
    assert outcome.message_times["m0"] == math.inf
    assert 0 < outcome.met < outcome.required == dual.n
    missing = {v for v in dual.nodes if (v, "m0") not in result.deliveries}
    assert len(missing) == outcome.required - outcome.met


# ----------------------------------------------------------------------
# The MMB verdict (mmb_outcome) on a hand-built dual graph
# ----------------------------------------------------------------------
def _two_components() -> DualGraph:
    # G has components {0, 1, 2} and {3, 4}; the grey edge 2-3 joins them
    # in G' only, so it creates no delivery obligation.
    return DualGraph(5, [(0, 1), (1, 2), (3, 4)], [(2, 3)])


def test_mmb_outcome_missing_delivery_leaves_message_unsolved():
    dual = _two_components()
    assignment = MessageAssignment.one_each([0, 3], "m")
    deliveries = {
        (0, "m0"): 0.0,
        (1, "m0"): 2.0,
        (3, "m1"): 0.0,
        (4, "m1"): 3.5,
    }  # node 2 never delivers m0
    outcome = mmb_outcome(dual, assignment, deliveries)
    assert outcome.message_times == {"m0": math.inf, "m1": 3.5}
    assert not outcome.solved
    assert outcome.completion_time == math.inf
    assert outcome.latest == 3.5
    assert (outcome.required, outcome.met) == (5, 4)
    solved = mmb_outcome(dual, assignment, {**deliveries, (2, "m0"): 4.0})
    assert solved.solved
    assert solved.completion_time == solved.latest == 4.0
    assert solved.message_times == {"m0": 4.0, "m1": 3.5}


def test_mmb_outcome_of_empty_assignment_is_solved_at_zero():
    outcome = mmb_outcome(_two_components(), MessageAssignment(), {})
    assert outcome.solved
    assert outcome.completion_time == 0.0
    assert outcome.message_times == {}
    assert (outcome.required, outcome.met) == (0, 0)


@pytest.mark.parametrize("substrate", ["standard", "rounds", "radio"])
def test_fault_free_verdict_adds_no_survivor_gauges(substrate):
    result = run(smoke_spec(substrate), RunOptions.summary())
    assert result.solved
    assert not [name for name in result.metrics if name.startswith("survivor_")]
