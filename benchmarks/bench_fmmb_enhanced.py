"""E6 — Figure 1, cell (Enhanced model, grey zone); Theorem 4.1.

Claim: FMMB solves MMB in ``O((D·log n + k·log n + log³n)·Fprog)`` w.h.p. —
no ``Fack`` term at all.

Regeneration: sweep n and k on grey-zone random geometric networks; verify
every run solves, measure total rounds against the Theorem 4.1 budget
shape, and demonstrate the headline property directly: FMMB's round count
is identical whatever ``Fack`` is, while BMMB under slow acknowledgments
degrades with ``Fack``.
"""

from __future__ import annotations

from dataclasses import replace

from repro import (
    AlgorithmSpec,
    ExperimentSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    materialize_topology,
    run,
)
from repro.analysis.bounds import fmmb_bound_rounds
from repro.analysis.tables import render_table
from repro.experiments import RunOptions

FPROG = 1.0


def fmmb_spec(n: int, side: float, k: int, seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"e6-fmmb-n{n}-k{k}",
        topology=TopologySpec(
            "random_geometric",
            {"n": n, "side": side, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("fmmb", {"c": 1.6}),
        workload=WorkloadSpec("one_each", {"k": k}),
        model=ModelSpec(fprog=FPROG),
        substrate="rounds",
        seed=seed,
    )


def run_one(n: int, side: float, k: int, seed: int = 0):
    spec = fmmb_spec(n, side, k, seed)
    return materialize_topology(spec), run(spec, RunOptions.summary())


def bench_fmmb_scaling(benchmark, report):
    rows = []
    for n, side, k in ((20, 2.0, 2), (40, 3.0, 4), (80, 4.5, 4), (80, 4.5, 12)):
        dual, result = run_one(n, side, k)
        assert result.solved
        assert result.metrics["mis_valid"]
        total_rounds = int(result.metrics["rounds_total"])
        budget = fmmb_bound_rounds(dual.diameter(), k, n, c=1.6)
        rows.append(
            {
                "n": n,
                "D": dual.diameter(),
                "k": k,
                "rounds(MIS)": int(result.metrics["rounds_mis"]),
                "rounds(gather)": int(result.metrics["rounds_gather"]),
                "rounds(spread)": int(result.metrics["rounds_spread"]),
                "rounds(total)": total_rounds,
                "budget shape": round(budget),
                "ratio": total_rounds / budget,
            }
        )
        assert total_rounds <= 5 * budget
    report(
        "E6 Figure 1 (Enhanced, grey zone): FMMB rounds vs "
        "(D log n + k log n + log^3 n) budget",
        render_table(rows),
    )

    # The no-Fack property, measured: BMMB pays for Fack, FMMB does not.
    # Same topology spec + seed => both substrates run the same network.
    base = fmmb_spec(40, 3.0, 4, seed=1)
    fmmb_result = run(base, RunOptions.summary())
    fack_rows = []
    for fack in (5.0, 50.0, 500.0):
        bmmb_spec = replace(
            base,
            name=f"e6-bmmb-fack{fack}",
            algorithm=AlgorithmSpec("bmmb"),
            scheduler=SchedulerSpec("worstcase", {"p_unreliable": 0.0}),
            model=ModelSpec(fack=fack, fprog=FPROG),
            substrate="standard",
        )
        bmmb = run(bmmb_spec, RunOptions.summary())
        fack_rows.append(
            {
                "Fack/Fprog": fack,
                "BMMB (worst-case acks)": bmmb.completion_time,
                "FMMB": fmmb_result.completion_time,
                "winner": "FMMB" if fmmb_result.completion_time < bmmb.completion_time else "BMMB",
            }
        )
    assert fack_rows[-1]["winner"] == "FMMB"
    report(
        "E6b FMMB has no Fack term: completion vs Fack/Fprog ratio",
        render_table(fack_rows),
    )
    benchmark.pedantic(run_one, args=(40, 3.0, 4), rounds=3, iterations=1)
