"""E11 — the BMMB/FMMB crossover implied by Figure 1's two rows.

Claim: BMMB (standard model) pays ``Θ((D + k)·Fack)`` worst-case under
grey-zone unreliability while FMMB (enhanced model) pays
``O((D log n + k log n + log³n)·Fprog)``; as the ``Fack/Fprog`` ratio grows,
FMMB must eventually win despite its polylog overhead.

Regeneration: a thin wrapper over the ``crossover`` campaign — the fixed
network/workload, the ratio ladder, and the who-wins-at-each-end claim
live in its declarative ``crossover`` check; the benchmark reports the
aggregated curve and the first ratio where FMMB wins.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.campaigns import (
    build_campaign,
    campaign_summary_rows,
    evaluate_checks,
    results_by_sweep,
    run_campaign,
    y_value,
)
from repro.experiments import RunOptions, run
from repro.experiments.sweep import path_value


def bench_crossover(benchmark, report):
    campaign = build_campaign("crossover")
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    failures = [f for check in checks for f in check.failures]
    assert not failures, failures
    fmmb_by_ratio = {
        path_value(p.spec, "model.fack"): y_value(p, "completion_time")
        for p in points["fmmb"]
    }
    crossover = None
    for p in points["bmmb"]:
        ratio = path_value(p.spec, "model.fack")
        if fmmb_by_ratio[ratio] < y_value(p, "completion_time"):
            crossover = ratio if crossover is None else min(crossover, ratio)
    rows = campaign_summary_rows(campaign, points)
    rows.append({"figure": "crossover", "series": f"FMMB wins at <= {crossover}"})
    report(
        "E11 BMMB vs FMMB crossover as Fack/Fprog grows (n=40, k=5)",
        render_table(rows),
    )
    benchmark.extra_info["crossover_ratio"] = crossover
    representative = campaign.sweep("bmmb").expand()[2]
    benchmark.pedantic(
        run,
        args=(representative, RunOptions.summary()),
        rounds=3,
        iterations=1,
    )
