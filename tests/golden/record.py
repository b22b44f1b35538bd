"""Record golden same-seed fixtures for the determinism regression tests.

Usage::

    PYTHONPATH=src python tests/golden/record.py

Writes one canonical-JSON fixture per scenario into ``tests/golden/``.
The fixtures pin the *observable execution* of fixed-seed experiments —
delivery tables, per-instance rcv/ack times, round counts — so that
performance work on the kernel, topology caches, and fault engine can be
proven behavior-preserving: ``tests/test_perf_golden.py`` re-runs every
scenario and compares the canonical JSON byte-for-byte.

Only regenerate fixtures on an *intentional* behavior change (new RNG
stream layout, a semantics fix), never to silence a mismatch introduced
by an optimization — a mismatch is exactly what the fixtures exist to
catch.
"""

from __future__ import annotations

import json
import os
import sys

from repro.experiments.runner import ExperimentResult, run
from repro.experiments.specs import (
    AlgorithmSpec,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.experiments.sweep import Sweep, run_sweep

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def _num(x) -> str:
    """Exact, portable scalar encoding (repr round-trips floats)."""
    return repr(float(x))


def _payload_tag(payload) -> str:
    """A stable string for an instance payload (Message or protocol data)."""
    mid = getattr(payload, "mid", None)
    if mid is not None:
        return f"mid:{mid}"
    return f"str:{payload}"


def _instances_digest(instances) -> list:
    digest = []
    for inst in instances:
        digest.append(
            [
                inst.iid,
                inst.sender,
                _payload_tag(inst.payload),
                _num(inst.bcast_time),
                _num(inst.ack_time) if inst.ack_time is not None else None,
                _num(inst.abort_time) if inst.abort_time is not None else None,
                sorted(
                    [node, _num(t)] for node, t in inst.rcv_times.items()
                ),
            ]
        )
    return digest


def _deliveries_digest(times: dict) -> list:
    return sorted([node, mid, _num(t)] for (node, mid), t in times.items())


def fingerprint(result: ExperimentResult) -> dict:
    """The observable outcome of one run, as canonical JSON-ready data."""
    fp: dict = {
        "spec": result.spec.to_dict(),
        "solved": result.solved,
        "completion_time": _num(result.completion_time),
        "broadcast_count": result.broadcast_count,
        "delivered_count": result.delivered_count,
        "metrics": {k: _num(v) for k, v in sorted(result.metrics.items())},
    }
    raw = result.raw
    if raw is None:
        return fp
    substrate = result.spec.substrate
    if substrate == "standard":
        fp["deliveries"] = _deliveries_digest(raw.deliveries.times)
        if raw.instances is not None:
            fp["instances"] = _instances_digest(raw.instances)
    elif substrate == "protocol":
        fp["quiesced"] = raw.quiesced
        fp["end_time"] = _num(raw.end_time)
        fp["instances"] = _instances_digest(raw.instances)
    elif substrate == "rounds":
        fp["delivery_rounds"] = sorted(
            [node, mid, rnd]
            for (node, mid), rnd in raw.delivery_rounds.items()
        )
        fp["total_rounds"] = raw.total_rounds
    elif substrate in ("radio", "sinr"):
        fp["deliveries"] = _deliveries_digest(raw.layer.deliveries)
        fp["slots"] = raw.slots
        fp["instances"] = _instances_digest(raw.layer.instances)
    return fp


def canonical_json(data) -> str:
    """Byte-stable serialization used both to record and to compare."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _rgg(n: int, side: float) -> TopologySpec:
    return TopologySpec(
        "random_geometric",
        {"n": n, "side": side, "c": 1.6, "grey_edge_probability": 0.4},
    )


#: Scenario name → spec.  Every substrate and the faulted paths appear.
SCENARIOS: dict[str, ExperimentSpec] = {
    "bmmb_uniform": ExperimentSpec(
        name="golden-bmmb-uniform",
        topology=_rgg(32, 3.0),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 6}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=7,
    ),
    "bmmb_contention": ExperimentSpec(
        name="golden-bmmb-contention",
        topology=_rgg(32, 3.0),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("contention"),
        workload=WorkloadSpec("one_each", {"k": 6}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=11,
    ),
    "bmmb_enhanced_mac": ExperimentSpec(
        name="golden-bmmb-enhanced",
        topology=_rgg(28, 3.0),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 4}),
        model=ModelSpec(fack=20.0, fprog=1.0, mac="enhanced"),
        seed=15,
    ),
    "bmmb_crash": ExperimentSpec(
        name="golden-bmmb-crash",
        topology=_rgg(32, 3.0),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("one_each", {"k": 6}),
        fault=FaultSpec("crash_random", {"fraction": 0.2}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=13,
    ),
    "bmmb_flap": ExperimentSpec(
        name="golden-bmmb-flap",
        topology=_rgg(32, 3.0),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("contention"),
        workload=WorkloadSpec("one_each", {"k": 6}),
        fault=FaultSpec("flap_periodic", {"fraction": 0.4, "period": 4.0}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=17,
    ),
    "bmmb_arrivals": ExperimentSpec(
        name="golden-bmmb-arrivals",
        topology=_rgg(28, 3.0),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec("staggered", {"count": 4, "spacing": 5.0}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=31,
    ),
    "fmmb_rounds": ExperimentSpec(
        name="golden-fmmb",
        topology=_rgg(24, 2.5),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 4}),
        model=ModelSpec(fprog=1.0, fack=20.0),
        substrate="rounds",
        seed=5,
    ),
    "fmmb_crash": ExperimentSpec(
        name="golden-fmmb-crash",
        topology=_rgg(24, 2.5),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": 4}),
        fault=FaultSpec("crash_random", {"fraction": 0.15}),
        model=ModelSpec(fprog=1.0, fack=20.0),
        substrate="rounds",
        seed=19,
    ),
    "radio_star": ExperimentSpec(
        name="golden-radio",
        topology=TopologySpec("star", {"n": 12}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": list(range(1, 12))}),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="radio",
        seed=3,
    ),
    "radio_crash": ExperimentSpec(
        name="golden-radio-crash",
        topology=TopologySpec("star", {"n": 12}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": list(range(1, 12))}),
        fault=FaultSpec("crash_random", {"fraction": 0.2}),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="radio",
        seed=23,
    ),
    "radio_crash_recover": ExperimentSpec(
        name="golden-radio-crash-recover",
        topology=TopologySpec("star", {"n": 12}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": list(range(1, 12))}),
        fault=FaultSpec(
            "crash_random",
            {"fraction": 0.3, "horizon": 200.0, "recover_after": 15.0},
        ),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="radio",
        seed=29,
    ),
    "radio_flap": ExperimentSpec(
        name="golden-radio-flap",
        topology=_rgg(16, 2.2),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=FaultSpec("flap_random"),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="radio",
        seed=43,
    ),
    "radio_churn": ExperimentSpec(
        name="golden-radio-churn",
        topology=_rgg(16, 2.2),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 3}),
        fault=FaultSpec("churn_poisson", {"leave_fraction": 0.25}),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="radio",
        seed=53,
    ),
    "sinr_k2": ExperimentSpec(
        name="golden-sinr",
        topology=_rgg(16, 2.2),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        model=ModelSpec(params={"max_slots": 200_000}),
        substrate="sinr",
        seed=41,
    ),
    "leader_protocol": ExperimentSpec(
        name="golden-leader",
        topology=_rgg(24, 2.5),
        algorithm=AlgorithmSpec("flood_max"),
        scheduler=SchedulerSpec("uniform"),
        model=ModelSpec(fack=20.0, fprog=1.0),
        substrate="protocol",
        seed=9,
    ),
    "consensus_crash": ExperimentSpec(
        name="golden-consensus-crash",
        topology=_rgg(24, 2.5),
        algorithm=AlgorithmSpec("flood_consensus"),
        scheduler=SchedulerSpec("uniform"),
        fault=FaultSpec("crash_random", {"fraction": 0.15}),
        model=ModelSpec(fack=20.0, fprog=1.0),
        substrate="protocol",
        seed=29,
    ),
}


def sweep_fingerprint() -> dict:
    """A small serial sweep: pins seed derivation + aggregation."""
    base = SCENARIOS["bmmb_uniform"]
    specs = Sweep.grid(base, axes={"workload.k": [2, 4]}, repeats=2)
    sweep = run_sweep(specs, workers=None)
    return {
        "solved_rate": _num(sweep.solved_rate),
        "runs": [
            {
                "name": r.spec.name,
                "seed": r.spec.seed,
                "solved": r.solved,
                "completion_time": _num(r.completion_time),
                "broadcast_count": r.broadcast_count,
                "delivered_count": r.delivered_count,
            }
            for r in sweep
        ],
    }


def main() -> int:
    for name, spec in SCENARIOS.items():
        fp = fingerprint(run(spec))
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(fp) + "\n")
        print(f"recorded {name} -> {os.path.relpath(path)}")
    path = os.path.join(GOLDEN_DIR, "sweep_grid.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(sweep_fingerprint()) + "\n")
    print(f"recorded sweep_grid -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
