#!/usr/bin/env python
"""Fault & dynamics gallery: one experiment under every built-in scenario.

The same BMMB experiment — a grey-zone geometric network, three messages —
is run fault-free and then under each registered fault scenario: random
and targeted crashes, periodic and random link flapping, and Poisson
churn.  Under faults, ``solved`` means *solved among survivors*, and the
result carries the fault ledger (crashes, joins, lost messages, dropped
deliveries) as metrics.

Everything is deterministic: the fault timeline is compiled from the
spec's seed before the run starts, so re-running this script reproduces
every number exactly.

Run:  python examples/fault_scenarios.py [seed]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import (
    ExperimentSpec,
    FaultSpec,
    TopologySpec,
    WorkloadSpec,
    run,
)
from repro.analysis.tables import render_table
from repro.experiments import RunOptions

#: The gallery: scenario name → FaultSpec parameters.
SCENARIOS: list[FaultSpec] = [
    FaultSpec("none"),
    FaultSpec("crash_random", {"fraction": 0.2, "earliest": 0.0, "latest": 0.3}),
    FaultSpec("crash_random", {"fraction": 0.2, "latest": 0.3, "recover_after": 10.0}),
    FaultSpec("crash_targeted", {"count": 2, "at": 0.02}),
    FaultSpec("flap_periodic", {"fraction": 0.8, "period": 5.0}),
    FaultSpec("flap_random", {"fraction": 0.8, "mean_up": 3.0, "mean_down": 3.0}),
    FaultSpec("churn_poisson", {"join_fraction": 0.3, "mean_gap": 4.0}),
]


def label(fault: FaultSpec) -> str:
    if not fault.enabled:
        return "none (baseline)"
    params = ",".join(f"{k}={v}" for k, v in sorted(fault.params.items()))
    return f"{fault.kind}({params})" if params else fault.kind


def main(seed: int = 7) -> None:
    base = ExperimentSpec(
        name="fault-gallery",
        topology=TopologySpec(
            "random_geometric",
            {"n": 24, "side": 2.4, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        workload=WorkloadSpec("one_each", {"k": 3}),
        seed=seed,
    )
    rows = []
    for fault in SCENARIOS:
        spec = replace(base, fault=fault, name=f"gallery-{fault.kind}")
        result = run(spec, RunOptions.summary())
        metrics = result.metrics
        rows.append(
            {
                "scenario": label(fault),
                "solved": result.solved,
                "completion": (
                    round(result.completion_time, 2)
                    if result.solved
                    else "-"
                ),
                "survivors": int(metrics.get("survivors", base.topology.params["n"])),
                "crashed": int(
                    metrics.get("nodes_crashed", 0) + metrics.get("nodes_left", 0)
                ),
                "joined": int(metrics.get("nodes_joined", 0)),
                "flaps": int(metrics.get("link_flap_events", 0)),
                "msgs lost": int(metrics.get("messages_lost", 0)),
                "rcv dropped": int(metrics.get("deliveries_dropped", 0)),
            }
        )
    print(render_table(rows, title=f"BMMB under fault scenarios (seed={seed})"))
    print()
    print("Under faults, 'solved' means solved among surviving nodes;")
    print("messages whose origin died before arrival are counted lost, not owed;")
    print("late joiners are owed only messages arriving after they join (plus"
          " their own).")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
