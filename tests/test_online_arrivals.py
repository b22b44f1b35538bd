"""Tests for the online-arrival MMB variant (paper footnote 4)."""

from __future__ import annotations

import pytest

from repro.core.problem import Arrival, ArrivalSchedule
from repro.errors import ExperimentError
from repro.ids import Message, MessageAssignment
from repro.mac.schedulers import UniformDelayScheduler, WorstCaseAckScheduler
from repro.sim.rng import RandomSource
from repro.topology import line_network

from tests.conftest import FACK, run_bmmb


def test_schedule_rejects_duplicate_message():
    m = Message("m0", 0)
    with pytest.raises(ExperimentError, match="once"):
        ArrivalSchedule((Arrival(0.0, 0, m), Arrival(1.0, 1, m)))


def test_schedule_rejects_negative_time():
    with pytest.raises(ExperimentError, match="non-negative"):
        ArrivalSchedule((Arrival(-1.0, 0, Message("m0", 0)),))


def test_at_time_zero_matches_assignment():
    assignment = MessageAssignment.single_source(2, 3)
    schedule = ArrivalSchedule.at_time_zero(assignment)
    assert schedule.k == 3
    assert all(a.time == 0.0 for a in schedule.arrivals)
    assert schedule.as_assignment().messages == assignment.messages


def test_staggered_schedule_times():
    schedule = ArrivalSchedule.staggered(0, 4, spacing=5.0)
    assert [a.time for a in schedule.sorted_by_time()] == [0.0, 5.0, 10.0, 15.0]
    assert schedule.arrival_times()["m2"] == 10.0


def test_poisson_schedule_shape():
    rng = RandomSource(1)
    schedule = ArrivalSchedule.poisson([0, 1, 2], count=10, mean_gap=2.0, rng=rng)
    times = [a.time for a in schedule.sorted_by_time()]
    assert len(times) == 10
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    assert {a.node for a in schedule.arrivals} <= {0, 1, 2}


def test_poisson_validation():
    rng = RandomSource(1)
    with pytest.raises(ExperimentError):
        ArrivalSchedule.poisson([], count=3, mean_gap=1.0, rng=rng)
    with pytest.raises(ExperimentError):
        ArrivalSchedule.poisson([0], count=0, mean_gap=1.0, rng=rng)


def test_bmmb_solves_online_staggered_arrivals():
    rng = RandomSource(2)
    dual = line_network(10)
    schedule = ArrivalSchedule.staggered(0, 4, spacing=7.0)
    result = run_bmmb(dual, schedule, UniformDelayScheduler(rng))
    assert result.solved
    # Later messages complete later in absolute time...
    comp = result.per_message_completion
    assert comp["m0"] < comp["m3"]
    # ...and latency (arrival → last delivery) is reported per message.
    assert result.per_message_latency is not None
    for mid, latency in result.per_message_latency.items():
        assert latency == pytest.approx(
            comp[mid] - schedule.arrival_times()[mid]
        )


def test_online_latency_lower_than_batch_completion():
    """Staggered arrivals pipeline: each message's latency is close to the
    single-message flood time, not the batch completion time."""
    dual = line_network(12)
    spacing = 3 * FACK  # far apart: no queueing interference
    schedule = ArrivalSchedule.staggered(0, 4, spacing=spacing)
    result = run_bmmb(dual, schedule, WorstCaseAckScheduler())
    assert result.solved
    single = run_bmmb(
        dual, MessageAssignment.single_source(0, 1), WorstCaseAckScheduler()
    )
    for latency in result.per_message_latency.values():
        assert latency == pytest.approx(single.completion_time, rel=0.05)


def test_batched_arrivals_queue_and_spaced_arrivals_do_not():
    """Footnote 4: a batch at one node queues behind its acknowledgments,
    while arrivals spaced 2*Fack apart each see about one message's flood
    time."""
    dual = line_network(20)

    def max_latency(schedule):
        result = run_bmmb(dual, schedule, WorstCaseAckScheduler())
        assert result.solved
        return result.max_latency

    single = max_latency(
        ArrivalSchedule.at_time_zero(MessageAssignment.single_source(0, 1))
    )
    batch = max_latency(
        ArrivalSchedule.at_time_zero(MessageAssignment.single_source(0, 6))
    )
    spaced = max_latency(ArrivalSchedule.staggered(0, 6, spacing=2 * FACK))
    assert batch > 2.0 * single
    assert spaced <= 1.3 * single


def test_bmmb_solves_poisson_arrivals_on_multiple_nodes():
    rng = RandomSource(3)
    dual = line_network(10)
    schedule = ArrivalSchedule.poisson(
        dual.nodes, count=6, mean_gap=4.0, rng=rng.child("arr")
    )
    result = run_bmmb(dual, schedule, UniformDelayScheduler(rng.child("s")))
    assert result.solved
    assert result.max_latency >= max(result.per_message_latency.values())


def test_time_zero_runs_report_zero_based_latency():
    rng = RandomSource(4)
    dual = line_network(8)
    result = run_bmmb(
        dual, MessageAssignment.single_source(0, 2), UniformDelayScheduler(rng)
    )
    assert result.per_message_latency == result.per_message_completion
