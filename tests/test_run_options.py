"""RunOptions: the consolidated capture surface for run()/sweeps/campaigns.

Acceptance bar for the consolidation: one frozen options bundle is the
only way to say how a run is captured; invalid combinations fail at
construction; sweeps and campaign directives accept (and validate)
per-point options.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    AlgorithmSpec,
    ExperimentSpec,
    RunOptions,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    run,
    run_sweep,
)


def _spec(seed: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        name="options-smoke",
        topology=TopologySpec(
            "random_geometric",
            {"n": 12, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"k": 2}),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Construction rules
# ----------------------------------------------------------------------
def test_defaults_and_presets():
    assert RunOptions() == RunOptions(keep_raw=True)
    assert not RunOptions.summary().keep_raw
    assert RunOptions.observed().keep_raw


def test_window_implies_summary_capture():
    opts = RunOptions(window=50.0, max_windows=4)
    assert not opts.keep_raw


def test_max_windows_requires_window():
    with pytest.raises(ExperimentError, match="requires a window width"):
        RunOptions(max_windows=4)


def test_journal_cannot_combine_with_windowing():
    with pytest.raises(ExperimentError, match="cannot be combined"):
        RunOptions(window=10.0, journal="out.obs.jsonl.gz")


def test_options_are_hashable_and_frozen():
    opts = RunOptions.summary()
    assert {opts: 1}[RunOptions(keep_raw=False)] == 1
    with pytest.raises(AttributeError):
        opts.keep_raw = True


# ----------------------------------------------------------------------
# run() surface
# ----------------------------------------------------------------------
def test_windowed_options_fold_observations():
    result = run(_spec(), RunOptions(window=50.0, max_windows=4))
    assert result.raw is None
    assert result.metrics["obs_retained_peak"] <= 4


def test_journal_option_writes_a_journal(tmp_path):
    from repro.runtime.journal import read_journal

    path = tmp_path / "run.obs.jsonl.gz"
    summary = run(_spec(), RunOptions(keep_raw=False, journal=path))
    # The journal captures the stream even though the summary stays lean.
    assert summary.raw is None
    journal = read_journal(os.fspath(path))
    assert len(journal.observations) > 0


# ----------------------------------------------------------------------
# Sweeps and campaign directives
# ----------------------------------------------------------------------
def test_run_sweep_accepts_options():
    specs = list(Sweep.grid(_spec(), axes={}, repeats=2))
    default = run_sweep(specs)
    observed = run_sweep(specs, options=RunOptions.observed())
    assert list(default) == list(observed)
    assert all(r.observations == () for r in default)
    assert all(r.observations for r in observed)


def test_run_sweep_rejects_per_run_journal_paths():
    specs = list(Sweep.grid(_spec(), axes={}, repeats=1))
    with pytest.raises(ExperimentError, match="journal"):
        run_sweep(specs, options=RunOptions(journal="nope.obs.jsonl.gz"))


def test_sweep_directive_validates_options():
    from repro.campaigns.spec import SweepDirective

    directive = SweepDirective(
        name="svc", base=_spec(), options=RunOptions(window=25.0)
    )
    assert directive.run_options() == RunOptions(window=25.0)
    # Defaults derive from the journal flag when no override is given.
    assert SweepDirective(name="s", base=_spec()).run_options() == (
        RunOptions.summary()
    )
    assert SweepDirective(
        name="j", base=_spec(), journal=True
    ).run_options() == RunOptions.observed()
    with pytest.raises(ExperimentError, match="store"):
        SweepDirective(
            name="bad",
            base=_spec(),
            options=RunOptions(journal="x.obs.jsonl.gz"),
        )
    with pytest.raises(ExperimentError, match="journal=True needs"):
        SweepDirective(
            name="bad2",
            base=_spec(),
            journal=True,
            options=RunOptions.summary(),
        )


def test_directive_options_stay_out_of_provenance():
    from repro.campaigns.spec import SweepDirective

    plain = SweepDirective(name="svc", base=_spec())
    tuned = SweepDirective(
        name="svc", base=_spec(), options=RunOptions(window=25.0)
    )
    # Execution policy, not provenance: equality and serialization ignore
    # the override, so store keys never change when options do.
    assert plain == tuned
    assert plain.to_dict() == tuned.to_dict()
