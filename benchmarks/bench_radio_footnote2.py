"""E13 — footnote 2 from below: the decay MAC's emergent Fprog ≪ Fack.

Claim (footnote 2): decay-style back-off gives ``Fprog`` polylogarithmic in
the maximum contention while ``Fack`` is linear (or worse) in it; the star
network makes the gap concrete.

Regeneration: a thin wrapper over the ``radio_footnote2`` campaign —
BMMB runs **over the implemented radio MAC** on stars of growing size,
each execution's *empirical* ``Fack``/``Fprog`` is extracted (the
smallest constants satisfying the abstract-MAC timing axioms), and the
campaign's ``growth_gap`` check enforces the linear-vs-polylog split.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.campaigns import (
    build_campaign,
    campaign_summary_rows,
    evaluate_checks,
    results_by_sweep,
    run_campaign,
)
from repro.experiments import RunOptions, run


def bench_radio_footnote2(benchmark, report):
    campaign = build_campaign("radio_footnote2")
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    failures = [f for check in checks for f in check.failures]
    assert not failures, failures
    assert all(
        p.result.metrics["delivery_success_rate"] == 1.0
        for p in points["stars"]
    )
    report(
        "E13 Footnote 2 from below: decay-over-radio yields Fprog ~ polylog, "
        "Fack ~ linear in contention",
        render_table(campaign_summary_rows(campaign, points)),
    )
    # Representative point: the n=24 star, one seed.
    specs = campaign.sweep("stars").expand()
    representative = next(
        s for s in specs if s.topology.params["n"] == 24
    )
    benchmark.pedantic(
        run,
        args=(representative, RunOptions.summary()),
        rounds=3,
        iterations=1,
    )
