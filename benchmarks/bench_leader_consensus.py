"""E14 — §5 future work: leader election and consensus on the same stack.

The paper's conclusion proposes studying leader election and consensus in
the dual-graph abstract MAC setting.  This bench runs the package's
FloodMax and flood-consensus extensions across topologies and schedulers,
checks their postconditions (max-id leader per component; agreement +
validity), and records completion-time scaling with the diameter.
"""

from __future__ import annotations

from repro import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    materialize_topology,
    run,
)
from repro.analysis.fitting import linear_fit
from repro.analysis.tables import render_table
from repro.experiments import RunOptions

FACK = 20.0
FPROG = 1.0


def _protocol_spec(algorithm: str, n: int, scheduler_kind: str, seed: int):
    return ExperimentSpec(
        name=f"e14-{algorithm}-n{n}-{scheduler_kind}",
        topology=TopologySpec("line", {"n": n}),
        algorithm=AlgorithmSpec(algorithm),
        scheduler=SchedulerSpec(scheduler_kind),
        workload=None,
        model=ModelSpec(fack=FACK, fprog=FPROG),
        substrate="protocol",
        seed=seed,
    )


def run_leader(n: int, scheduler_kind: str, seed: int = 0):
    spec = _protocol_spec("flood_max", n, scheduler_kind, seed)
    result = run(spec, RunOptions.summary())
    # solved == quiesced + elected_correctly (the registry postcondition).
    assert result.solved
    return materialize_topology(spec), result


def bench_leader_election(benchmark, report):
    rows = []
    series = []
    for n in (8, 16, 32, 64):
        dual, result = run_leader(n, "uniform")
        series.append((dual.diameter(), result.completion_time))
        rows.append(
            {
                "n": n,
                "D": dual.diameter(),
                "scheduler": "uniform",
                "stabilized at": result.completion_time,
                "broadcasts": result.broadcast_count,
            }
        )
    for kind in ("contention", "worstcase"):
        dual, result = run_leader(16, kind)
        rows.append(
            {
                "n": 16,
                "D": dual.diameter(),
                "scheduler": kind,
                "stabilized at": result.completion_time,
                "broadcasts": result.broadcast_count,
            }
        )
    fit = linear_fit([x for x, _ in series], [y for _, y in series])
    assert fit.r_squared > 0.9  # stabilization scales with the diameter
    rows.append({"n": "fit", "scheduler": "slope/D", "stabilized at": fit.slope})
    report(
        "E14a Leader election (FloodMax) on the abstract MAC layer",
        render_table(rows),
    )
    benchmark.extra_info["slope_per_hop"] = fit.slope
    benchmark.pedantic(run_leader, args=(32, "uniform"), rounds=3, iterations=1)


def run_consensus(n: int, seed: int = 0):
    spec = _protocol_spec("flood_consensus", n, "uniform", seed)
    result = run(spec, RunOptions.summary())
    # solved == quiesced + consensus_reached (the registry postcondition).
    assert result.solved
    return materialize_topology(spec), result


def bench_consensus(benchmark, report):
    rows = []
    for n in (6, 12, 24):
        dual, result = run_consensus(n)
        rows.append(
            {
                "n": n,
                "decided": f"v{max(dual.nodes)}",
                "stabilized at": result.completion_time,
                "broadcasts": result.broadcast_count,
                "broadcasts = n^2": result.broadcast_count == n * n,
            }
        )
    report(
        "E14b Flood consensus: agreement + validity via n-proposal flooding",
        render_table(rows),
    )
    benchmark.pedantic(run_consensus, args=(12,), rounds=3, iterations=1)
