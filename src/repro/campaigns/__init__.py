"""repro.campaigns — resumable reproduction campaigns.

A campaign bundles everything needed to regenerate one of the paper's
artifacts: a named set of sweeps (expanding to deterministic
:class:`~repro.experiments.specs.ExperimentSpec` points), figure
directives, and machine-checkable validation.  The executor shards points
deterministically across jobs/machines, runs them on the supervised
worker fabric, and checkpoints every completed point into a
content-addressed, checksummed result store — so an interrupted campaign
resumes with zero recomputation and running twice is a no-op.

CLI: ``python -m repro campaign {list,run,resume,report,verify,diff}``.

The store speaks to byte storage through the pluggable backends in
:mod:`repro.store`: ``ResultStore("artifacts/store")`` uses the local
directory layout, ``ResultStore("http://host:8750")`` a shared store
served by ``repro store serve`` — campaigns, shards, and machines can
all share one cache.

Quickstart::

    from repro.campaigns import (
        FabricConfig, ResultStore, build_campaign, run_campaign,
        verify_campaign,
    )

    campaign = build_campaign("figure1", n_max=32)
    store = ResultStore("artifacts/store")
    outcome = run_campaign(campaign, store, fabric=FabricConfig(workers=4))
    print(outcome.describe())          # "... cache hit 0.0%" first time
    report = verify_campaign(campaign, store)
    assert report.ok
"""

from repro._lazy import lazy_exports

#: Each public name's defining module, imported when the name is first read.
_SOURCES = {
    "repro.campaigns.chaos": ("ChaosSpec", "parse_chaos"),
    "repro.campaigns.supervision": (
        "INTERRUPT_EXIT",
        "RESUMABLE_EXIT",
        "FabricConfig",
        "FabricEvent",
        "FabricHealth",
        "backoff_delay",
        "run_supervised",
    ),
    "repro.campaigns.builtin": (
        "CAMPAIGNS",
        "CampaignEntry",
        "build_campaign",
        "list_campaigns",
        "register_campaign",
    ),
    "repro.campaigns.checks": (
        "BOUNDS",
        "CHECKS",
        "Point",
        "bound_value",
        "register_bound",
        "register_check",
        "workload_k",
        "y_value",
    ),
    "repro.campaigns.diff": ("DiffReport", "PointDiff", "diff_campaign"),
    "repro.campaigns.executor": (
        "CampaignPoint",
        "CampaignRun",
        "CheckOutcome",
        "VerifyReport",
        "collect_results",
        "evaluate_checks",
        "evaluate_trace_checks",
        "expand_points",
        "parse_shard",
        "results_by_sweep",
        "run_campaign",
        "shard_points",
        "verify_campaign",
    ),
    "repro.campaigns.report": ("write_artifacts",),
    "repro.campaigns.spec": (
        "CampaignSpec",
        "CheckSpec",
        "FigureSpec",
        "SeriesSpec",
        "SweepDirective",
        "scaled_values",
    ),
    "repro.campaigns.store": ("ResultStore", "StoreStats", "spec_key"),
    "repro.campaigns.trace_checks": (
        "TRACE_CHECKS",
        "register_trace_check",
        "run_trace_check",
    ),
}

__all__ = [
    "BOUNDS",
    "CAMPAIGNS",
    "CHECKS",
    "CampaignEntry",
    "CampaignPoint",
    "CampaignRun",
    "CampaignSpec",
    "ChaosSpec",
    "CheckOutcome",
    "CheckSpec",
    "DiffReport",
    "PointDiff",
    "FabricConfig",
    "FabricEvent",
    "FabricHealth",
    "FigureSpec",
    "INTERRUPT_EXIT",
    "Point",
    "RESUMABLE_EXIT",
    "ResultStore",
    "SeriesSpec",
    "StoreStats",
    "SweepDirective",
    "TRACE_CHECKS",
    "VerifyReport",
    "backoff_delay",
    "bound_value",
    "build_campaign",
    "collect_results",
    "diff_campaign",
    "evaluate_checks",
    "evaluate_trace_checks",
    "expand_points",
    "list_campaigns",
    "parse_chaos",
    "parse_shard",
    "register_bound",
    "register_campaign",
    "register_check",
    "register_trace_check",
    "results_by_sweep",
    "run_campaign",
    "run_supervised",
    "run_trace_check",
    "scaled_values",
    "shard_points",
    "spec_key",
    "verify_campaign",
    "workload_k",
    "write_artifacts",
    "y_value",
]

__getattr__, __dir__ = lazy_exports(__name__, _SOURCES, __all__)
