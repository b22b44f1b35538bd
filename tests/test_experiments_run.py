"""``run(spec)`` dispatch: four substrates, legacy equivalence, sweeps.

The acceptance bar for the declarative API: one spec shape drives all four
execution engines, and each spec run reproduces the corresponding legacy
entry point exactly when composed with the same derived streams.
"""

from __future__ import annotations

import pytest

from repro import (
    BMMBNode,
    MessageAssignment,
    RandomSource,
    UniformDelayScheduler,
    line_network,
    run_protocol,
    run_standard,
    star_network,
)
from repro.core.fmmb import FMMBConfig, run_fmmb
from repro.core.leader import FloodMaxNode, elected_correctly
from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    materialize_topology,
    run,
    run_sweep,
)
from repro.experiments.runner import ROOT_STREAM
from repro.radio import RadioMACLayer
from tests.golden.record import SCENARIOS

FACK = 20.0
FPROG = 1.0


def standard_spec(seed: int = 11) -> ExperimentSpec:
    return ExperimentSpec(
        name="std",
        topology=TopologySpec("line", {"n": 12}),
        workload=WorkloadSpec("single_source", {"node": 0, "count": 3}),
        scheduler=SchedulerSpec("uniform"),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_spec_runs_identically_twice():
    first = run(standard_spec())
    second = run(standard_spec())
    assert first == second  # wall_time and raw excluded from equality
    assert first.completion_time == second.completion_time
    assert first.delivered_count == second.delivered_count
    assert first.metrics == second.metrics


def test_different_seeds_give_different_executions():
    first = run(standard_spec(seed=1), RunOptions.summary())
    second = run(standard_spec(seed=2), RunOptions.summary())
    assert first.completion_time != second.completion_time


# ----------------------------------------------------------------------
# Substrate 1: standard (event-driven abstract MAC)
# ----------------------------------------------------------------------
def test_standard_substrate_matches_legacy_run_standard():
    spec = standard_spec()
    result = run(spec)

    root = RandomSource(spec.seed, ROOT_STREAM)
    legacy = run_standard(
        line_network(12),
        MessageAssignment.single_source(0, 3),
        lambda _: BMMBNode(),
        UniformDelayScheduler(root.child("scheduler"), p_unreliable=0.5),
        FACK,
        FPROG,
    )
    assert result.solved == legacy.solved
    assert result.completion_time == legacy.completion_time
    assert result.broadcast_count == legacy.broadcast_count
    assert result.delivered_count == len(legacy.deliveries)
    assert result.raw.deliveries == legacy.deliveries


def test_standard_substrate_supports_arrival_schedules():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 8}),
        workload=WorkloadSpec(
            "staggered", {"node": 0, "count": 3, "spacing": 10.0}
        ),
        scheduler=SchedulerSpec("uniform"),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=4,
    )
    result = run(spec, RunOptions.summary())
    assert result.solved
    assert result.metrics["max_latency"] < result.completion_time


# ----------------------------------------------------------------------
# Substrate 2: protocol (wakeup-driven, postcondition-checked)
# ----------------------------------------------------------------------
def test_protocol_substrate_matches_legacy_run_protocol():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 10}),
        algorithm=AlgorithmSpec("flood_max"),
        scheduler=SchedulerSpec("uniform"),
        workload=None,
        model=ModelSpec(fack=FACK, fprog=FPROG),
        substrate="protocol",
        seed=5,
    )
    result = run(spec)

    root = RandomSource(spec.seed, ROOT_STREAM)
    legacy = run_protocol(
        line_network(10),
        lambda _: FloodMaxNode(),
        UniformDelayScheduler(root.child("scheduler"), p_unreliable=0.5),
        FACK,
        FPROG,
    )
    assert legacy.quiesced and elected_correctly(line_network(10), legacy.automata)
    assert result.solved
    assert result.completion_time == legacy.end_time
    assert result.broadcast_count == legacy.broadcast_count


def test_protocol_substrate_checks_the_postcondition():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 6}),
        algorithm=AlgorithmSpec("flood_consensus"),
        scheduler=SchedulerSpec("uniform"),
        workload=None,
        substrate="protocol",
        seed=2,
    )
    result = run(spec)
    assert result.solved  # quiesced + consensus_reached
    decisions = {a.decision for a in result.raw.automata.values()}
    assert decisions == {"v5"}  # max-id proposal wins on a line 0..5


# ----------------------------------------------------------------------
# Substrate 3: rounds (FMMB)
# ----------------------------------------------------------------------
def test_rounds_substrate_matches_legacy_run_fmmb():
    spec = ExperimentSpec(
        topology=TopologySpec(
            "random_geometric",
            {"n": 16, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(fprog=FPROG),
        substrate="rounds",
        seed=9,
    )
    result = run(spec)

    dual = materialize_topology(spec)
    legacy = run_fmmb(
        dual,
        MessageAssignment.one_each(dual.nodes[:2]),
        fprog=FPROG,
        seed=9,
        config=FMMBConfig(c=1.6),
    )
    assert result.solved == legacy.solved
    assert result.completion_time == legacy.completion_time
    assert result.metrics["rounds_total"] == legacy.total_rounds
    assert result.raw.delivery_rounds == legacy.delivery_rounds


def test_rounds_substrate_rejects_timed_arrivals():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 6}),
        algorithm=AlgorithmSpec("fmmb"),
        workload=WorkloadSpec("staggered", {"count": 2, "spacing": 5.0}),
        substrate="rounds",
    )
    with pytest.raises(ExperimentError, match="time-0"):
        run(spec)


# ----------------------------------------------------------------------
# Substrate 4: radio (slotted collision radio below the abstraction)
# ----------------------------------------------------------------------
def test_radio_substrate_matches_legacy_adapter_loop():
    n = 6
    spec = ExperimentSpec(
        topology=TopologySpec("star", {"n": n}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": list(range(1, n))}),
        model=ModelSpec(params={"max_slots": 100_000}),
        substrate="radio",
        seed=3,
    )
    result = run(spec)

    root = RandomSource(spec.seed, ROOT_STREAM)
    layer = RadioMACLayer(star_network(n), root.child("radio"))
    for v in star_network(n).nodes:
        layer.register(v, BMMBNode())
    assignment = MessageAssignment.one_each(list(range(1, n)))
    for node, msgs in sorted(assignment.messages.items()):
        for m in msgs:
            layer.inject_arrival(node, m)
    slots = layer.run(max_slots=100_000)
    bounds = layer.empirical_bounds()

    assert result.solved
    assert result.metrics["slots"] == slots
    assert result.metrics["empirical_fack"] == bounds.fack
    assert result.metrics["empirical_fprog"] == bounds.fprog
    assert result.delivered_count == len(layer.deliveries)


# ----------------------------------------------------------------------
# Dispatch errors
# ----------------------------------------------------------------------
def test_substrate_algorithm_mismatch_is_rejected():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 6}),
        algorithm=AlgorithmSpec("flood_max"),
        substrate="standard",
    )
    with pytest.raises(ExperimentError, match="does not run on substrate"):
        run(spec)


def test_missing_workload_is_rejected_on_message_substrates():
    spec = ExperimentSpec(
        topology=TopologySpec("line", {"n": 6}), workload=None
    )
    with pytest.raises(ExperimentError, match="workload"):
        run(spec)


# ----------------------------------------------------------------------
# Sweeps: parallel == serial
# ----------------------------------------------------------------------
def sweep_specs() -> list[ExperimentSpec]:
    return Sweep.grid(
        standard_spec(), axes={"workload.count": [1, 2]}, repeats=2
    )


def test_parallel_sweep_equals_serial_sweep():
    specs = sweep_specs()
    serial = run_sweep(specs, workers=1)
    parallel = run_sweep(specs, workers=2)
    assert len(serial) == len(parallel) == 4
    assert serial.results == parallel.results


def test_parallel_chunked_sweep_matches_serial():
    base = SCENARIOS["bmmb_uniform"]
    specs = Sweep.grid(base, axes={"workload.k": [2, 3]}, repeats=2)
    serial = run_sweep(specs, workers=None)
    parallel = run_sweep(specs, workers=2)
    assert list(serial.results) == list(parallel.results)


def test_arrival_rate_sweep_parallel_equals_serial():
    """Arrival-rate axes (open_arrivals workloads) shard across worker
    processes like any other: registration survives pickling into the
    workers and every steady gauge comes back bit-identical."""
    base = ExperimentSpec(
        name="open",
        topology=TopologySpec("line", {"n": 8}),
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.02, "count": 4}
        ),
        scheduler=SchedulerSpec("uniform"),
        model=ModelSpec(fack=FACK, fprog=FPROG),
        seed=7,
    )
    specs = Sweep.grid(base, axes={"workload.rate": [0.01, 0.05]}, repeats=2)
    serial = run_sweep(specs, workers=1)
    parallel = run_sweep(specs, workers=2)
    assert len(serial) == len(parallel) == 4
    assert serial.results == parallel.results
    assert all("latency_p95" in r.metrics for r in serial)


def test_parallel_sweep_failure_names_the_point_and_error():
    """A point that raises in a worker fails the whole parallel sweep,
    naming the point and carrying the worker's ``Type: message``."""
    specs = Sweep.grid(standard_spec(), axes={"topology.bogus": [1, 2]})
    with pytest.raises(ExperimentError) as caught:
        run_sweep(specs, workers=2)
    text = str(caught.value)
    assert specs[0].name in text
    assert "TypeError: " in text and "bogus" in text
    # Serially the original exception propagates unchanged.
    with pytest.raises(TypeError, match="bogus"):
        run_sweep(specs)


def test_sweep_aggregation():
    sweep = run_sweep(sweep_specs())
    assert sweep.solved_rate == 1.0
    times = sweep.completion_times()
    assert len(times) == 4
    pcts = sweep.completion_percentiles((50.0, 100.0))
    assert pcts[50.0] <= pcts[100.0] == max(times)
    summary = sweep.completion_summary()
    assert summary.count == 4
    assert min(times) <= summary.mean <= max(times)
    rows = sweep.table_rows()
    assert len(rows) == 4 and all("completion" in row for row in rows)
