"""Tests for the supervised campaign fabric + deterministic chaos harness.

The convergence tests follow the repo's byte-identity discipline: a run
that survived injected kills, hangs, transient errors, and store
corruption must leave *exactly* the same bytes on disk as a fault-free
run — any divergence is a supervisor bug, not a tolerable flake.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from multiprocessing import Pipe

import pytest

from repro.campaigns import (
    ChaosSpec,
    FabricConfig,
    ResultStore,
    backoff_delay,
    build_campaign,
    collect_results,
    evaluate_checks,
    expand_points,
    parse_chaos,
    run_campaign,
    write_artifacts,
)
from repro.campaigns.store import encode_journal, spec_key
from repro.campaigns.supervision import (
    INTERRUPT_EXIT,
    RESUMABLE_EXIT,
    FabricHealth,
    FabricJob,
    _fabric_worker,
    run_supervised,
)
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    run,
    run_sweep,
)
from repro.experiments.substrates import topology_facts
from repro.runtime.journal import dump_journal


def _line_spec(n: int, seed: int = 0, nodes=None) -> ExperimentSpec:
    workload = (
        WorkloadSpec("single_source", {"node": 0, "count": 1})
        if nodes is None
        else WorkloadSpec("one_each", {"nodes": nodes})
    )
    return ExperimentSpec(
        name="fab",
        topology=TopologySpec("line", {"n": n}),
        scheduler=SchedulerSpec("worstcase"),
        workload=workload,
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=seed,
    )


def _jobs(count: int = 4) -> list[FabricJob]:
    return [
        FabricJob(i, f"lines[{i}]", _line_spec(4 + 2 * i, seed=i))
        for i in range(count)
    ]


def _store_bytes(root: str) -> dict[str, bytes]:
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


# ----------------------------------------------------------------------
# Deterministic building blocks
# ----------------------------------------------------------------------
def test_backoff_is_deterministic_and_exponential():
    key = "a" * 64
    first = [backoff_delay(key, attempt, 0.1) for attempt in (1, 2, 3)]
    second = [backoff_delay(key, attempt, 0.1) for attempt in (1, 2, 3)]
    assert first == second  # pure function of (key, attempt, base)
    # Each tier's jitter range [0.5, 1.5)*base*2^(a-1) stays below the
    # next tier's minimum, so the schedule is strictly increasing.
    assert first[0] < first[1] < first[2]
    assert 0.05 <= first[0] < 0.15
    assert backoff_delay(key, 0, 0.1) == 0.0
    assert backoff_delay(key, 3, 0.0) == 0.0
    other = backoff_delay("b" * 64, 1, 0.1)
    assert other != first[0]  # keyed per spec


def test_chaos_spec_validation():
    with pytest.raises(ExperimentError):
        ChaosSpec("meteor_strike")
    with pytest.raises(ExperimentError):
        ChaosSpec("worker_kill", fraction=1.5)
    with pytest.raises(ExperimentError):
        ChaosSpec("worker_kill", times=0)
    with pytest.raises(ExperimentError):
        ChaosSpec("point_hang", seconds=0.0)


def test_chaos_hits_are_deterministic_and_stop_after_times():
    spec = ChaosSpec("worker_kill", fraction=0.5, times=2, seed=9)
    keys = [f"{i:064x}" for i in range(64)]
    hits = [k for k in keys if spec.hits(k, 0)]
    assert hits == [k for k in keys if spec.hits(k, 0)]  # stable
    assert 0 < len(hits) < len(keys)  # fraction selects a strict subset
    assert all(spec.hits(k, 1) for k in hits)  # fires while attempt < times
    assert not any(spec.hits(k, 2) for k in keys)  # then never again


def test_parse_chaos_round_trip_and_errors():
    spec = parse_chaos("worker_kill:fraction=0.25,times=2,seed=7")
    assert spec == ChaosSpec("worker_kill", fraction=0.25, times=2, seed=7)
    assert parse_chaos("point_hang:seconds=30").seconds == 30.0
    assert parse_chaos("transient_error").times == 1
    for bad in (
        "meteor_strike",
        "worker_kill:fraction",
        "worker_kill:wat=1",
        "worker_kill:fraction=x",
    ):
        with pytest.raises(ExperimentError):
            parse_chaos(bad)


def test_fabric_config_validation():
    with pytest.raises(ExperimentError):
        FabricConfig(workers=0)
    with pytest.raises(ExperimentError):
        FabricConfig(max_retries=-1)
    with pytest.raises(ExperimentError):
        FabricConfig(point_timeout=0.0)
    with pytest.raises(ExperimentError):
        FabricConfig(straggler_factor=1.0)
    with pytest.raises(ExperimentError):
        FabricConfig(point_budget=-1)


def test_chaos_needing_more_retries_than_allowed_is_rejected():
    """Non-convergent combinations must fail fast, not loop or give up."""
    chaos = (ChaosSpec("transient_error", times=5),)
    with pytest.raises(ExperimentError, match="retries"):
        run_supervised(_jobs(1), None, FabricConfig(max_retries=2), chaos)
    # point_hang is exempt: recovered by timeout/steal, not by retries.
    run_supervised(
        (),
        None,
        FabricConfig(max_retries=0),
        (ChaosSpec("point_hang", times=5),),
    )


# ----------------------------------------------------------------------
# Supervised execution
# ----------------------------------------------------------------------
def test_supervised_matches_direct_results(tmp_path):
    """Two fabric workers store exactly what a serial in-process sweep does,
    topology facts included."""
    campaign = build_campaign("smoke", points=4)
    supervised = ResultStore(str(tmp_path / "sup"))
    direct = ResultStore(str(tmp_path / "dir"))
    sup_run = run_campaign(campaign, supervised, fabric=FabricConfig(workers=2))
    reference = run_sweep(point.spec for point in expand_points(campaign))
    for result in reference:
        direct.put(result, topology_facts(result.spec))
    assert sup_run.complete
    assert sup_run.results == list(reference)
    assert not sup_run.health.anomalies()
    assert _store_bytes(supervised.root) == _store_bytes(direct.root)


def test_worker_exception_retries_then_marks_failed():
    """A genuinely broken point exhausts retries and lands in failed."""
    jobs = [
        FabricJob(0, "ok[0]", _line_spec(5)),
        # node 99 does not exist on a 5-node line: raises at run time.
        FabricJob(1, "bad[0]", _line_spec(5, nodes=[99])),
    ]
    outcome = run_supervised(
        jobs, None, FabricConfig(max_retries=2, backoff_base=0.001)
    )
    assert sorted(outcome.results) == [0]
    assert list(outcome.failed) == [1]
    assert "unknown node" in outcome.failed[1]
    health = outcome.health
    assert health.counters["gave_up"] == 1
    assert health.counters["retried"] == 2  # initial try + 2 retries
    assert any(e.kind == "point_error" for e in health.events)


def test_point_budget_stops_early_and_resume_completes(tmp_path):
    campaign = build_campaign("smoke", points=5)
    store = ResultStore(str(tmp_path / "s"))
    first = run_campaign(
        campaign, store, fabric=FabricConfig(point_budget=2)
    )
    assert first.exhausted == "point_budget"
    assert first.ran == 2
    assert not first.complete
    assert "point_budget exhausted" in first.describe()
    second = run_campaign(campaign, store)
    assert second.complete
    assert second.cached == 2
    reference = ResultStore(str(tmp_path / "ref"))
    run_campaign(campaign, reference)
    assert _store_bytes(store.root) == _store_bytes(reference.root)


def test_wall_budget_zero_runs_nothing(tmp_path):
    campaign = build_campaign("smoke", points=3)
    store = ResultStore(str(tmp_path / "s"))
    outcome = run_campaign(
        campaign, store, fabric=FabricConfig(wall_budget=0.0)
    )
    assert outcome.exhausted == "wall_budget"
    assert outcome.ran == 0


def test_partial_run_artifacts_enumerate_missing(tmp_path):
    campaign = build_campaign("smoke", points=4)
    store = ResultStore(str(tmp_path / "s"))
    outcome = run_campaign(
        campaign, store, fabric=FabricConfig(point_budget=1)
    )
    assert outcome.exhausted == "point_budget"
    points_by_sweep, missing = collect_results(campaign, store)
    assert len(missing) == 3
    written = write_artifacts(
        campaign,
        points_by_sweep,
        [],
        str(tmp_path / "art"),
        missing=missing,
        health=outcome.health,
    )
    report = (tmp_path / "art" / "smoke" / "report.md").read_text()
    assert "## Missing points" in report
    for point in missing:
        assert f"`{point.sweep}[{point.index}]`" in report
    assert "checks skipped" in report
    manifest_path = tmp_path / "art" / "smoke" / "manifest.json"
    import json

    manifest = json.loads(manifest_path.read_text())
    assert manifest["partial"] is True
    assert len(manifest["missing"]) == 3
    # The figure still renders from the points that do exist...
    assert any("smoke_time_vs_D" in name for name in written)
    # ...but with *no* executed points the figure is skipped with a note
    # instead of crashing the report.
    empty = write_artifacts(
        campaign,
        {"lines": []},
        [],
        str(tmp_path / "art_empty"),
        missing=list(missing) + [p for p in [missing[0]]],
        health=None,
    )
    assert not any("smoke_time_vs_D" in name for name in empty)
    empty_report = (tmp_path / "art_empty" / "smoke" / "report.md").read_text()
    assert "figure skipped" in empty_report


def test_results_by_sweep_refuses_partial_runs(tmp_path):
    from repro.campaigns import results_by_sweep

    campaign = build_campaign("smoke", points=3)
    store = ResultStore(str(tmp_path / "s"))
    outcome = run_campaign(
        campaign, store, fabric=FabricConfig(point_budget=1)
    )
    with pytest.raises(ExperimentError, match="incomplete"):
        results_by_sweep(outcome)


# ----------------------------------------------------------------------
# Worker-side journals
# ----------------------------------------------------------------------
def _journaled_smoke(chaos=()):
    campaign = build_campaign("smoke", points=4)
    sweeps = tuple(dataclasses.replace(d, journal=True) for d in campaign.sweeps)
    return dataclasses.replace(campaign, sweeps=sweeps, chaos=tuple(chaos))


def test_fabric_journal_equals_in_process_dump(tmp_path):
    """A journal a fabric worker encodes is byte for byte ``dump_journal``
    of the same spec run in-process, with the checkpoint's meta."""
    spec = _line_spec(6)
    key = spec_key(spec)
    store = ResultStore(str(tmp_path / "store"))
    outcome = run_supervised([FabricJob(0, "j[0]", spec, journaled=True)], store)
    assert outcome.results[0].observations == ()
    expected = dump_journal(
        run(spec, RunOptions.observed()).observations,
        meta={"spec": spec.to_dict(), "spec_key": key},
    )
    assert store.backend.get("journal", key) == expected


def test_journaled_reply_carries_journal_bytes_not_observations():
    """The worker's reply to a journaled job holds the journal's bytes
    and a result without observations; an unjournaled observed job's
    reply holds the stream and no bytes."""
    supervisor_end, worker_end = Pipe()
    worker = threading.Thread(target=_fabric_worker, args=(worker_end, ()))
    worker.start()
    spec = _line_spec(6)
    options = RunOptions.observed()
    try:
        supervisor_end.send(("run", 1, spec, 0, options, False, True))
        status, task_id, (result, facts, journal) = supervisor_end.recv()
        supervisor_end.send(("run", 2, spec, 0, options, False, False))
        _, _, (observed, _, no_journal) = supervisor_end.recv()
    finally:
        supervisor_end.send(("exit",))
        worker.join()
    assert (status, task_id, facts) == ("ok", 1, None)
    assert result.observations == ()
    assert observed.observations and no_journal is None
    assert result == observed
    assert journal == encode_journal(spec, observed.observations)


def test_journaled_jobs_need_a_store():
    with pytest.raises(ExperimentError, match="need a store"):
        run_supervised([FabricJob(0, "j[0]", _line_spec(5), journaled=True)], None)


def test_journaled_chaos_run_on_two_workers_equals_one_worker(tmp_path):
    """Journals and summaries written by two workers under kills and
    store corruption are the bytes one fault-free worker writes."""
    reference = ResultStore(str(tmp_path / "ref"))
    assert run_campaign(_journaled_smoke(), reference).complete
    chaos = (
        ChaosSpec("worker_kill", fraction=0.5, seed=1),
        ChaosSpec("store_corrupt", fraction=0.5, seed=1),
    )
    store = ResultStore(str(tmp_path / "chaos"))
    outcome = run_campaign(
        _journaled_smoke(chaos), store, fabric=FabricConfig(workers=2)
    )
    assert outcome.complete and outcome.health.anomalies()
    found = _store_bytes(store.root)
    assert any(name.endswith(".obs.jsonl.gz") for name in found)
    assert found == _store_bytes(reference.root)


# ----------------------------------------------------------------------
# Chaos convergence (the harness's core contract)
# ----------------------------------------------------------------------
def _chaos_run(tmp_path, name, chaos, config=None, points=4):
    campaign = dataclasses.replace(
        build_campaign("smoke", points=points), chaos=tuple(chaos)
    )
    store = ResultStore(str(tmp_path / name))
    outcome = run_campaign(campaign, store, fabric=config)
    return store, outcome


def test_worker_kill_chaos_converges_byte_identically(tmp_path):
    reference, _ = _chaos_run(tmp_path, "ref", ())
    chaos = (ChaosSpec("worker_kill", fraction=0.75, seed=2),)
    store, outcome = _chaos_run(tmp_path, "chaos", chaos)
    assert outcome.complete and not outcome.failed
    assert outcome.health.counters["worker_deaths"] >= 1
    assert _store_bytes(store.root) == _store_bytes(reference.root)


def test_transient_error_chaos_converges(tmp_path):
    reference, _ = _chaos_run(tmp_path, "ref", ())
    chaos = (ChaosSpec("transient_error", fraction=0.75, times=2, seed=3),)
    store, outcome = _chaos_run(
        tmp_path, "chaos", chaos, FabricConfig(backoff_base=0.001)
    )
    assert outcome.complete and not outcome.failed
    assert outcome.health.counters["transient_errors"] >= 1
    assert _store_bytes(store.root) == _store_bytes(reference.root)


def test_store_corrupt_chaos_heals_through_reruns(tmp_path):
    reference, _ = _chaos_run(tmp_path, "ref", ())
    chaos = (ChaosSpec("store_corrupt", fraction=0.75, seed=4),)
    store, outcome = _chaos_run(tmp_path, "chaos", chaos)
    assert outcome.complete and not outcome.failed
    assert outcome.health.counters["corrupt_rewrites"] >= 1
    assert outcome.corrupt >= 1  # the verify-read saw the damage
    assert _store_bytes(store.root) == _store_bytes(reference.root)


def test_point_hang_chaos_recovered_by_timeout(tmp_path):
    reference, _ = _chaos_run(tmp_path, "ref", ())
    chaos = (ChaosSpec("point_hang", fraction=0.75, seconds=120.0, seed=5),)
    config = FabricConfig(point_timeout=0.5, backoff_base=0.001)
    store, outcome = _chaos_run(tmp_path, "chaos", chaos, config)
    assert outcome.complete and not outcome.failed
    assert outcome.health.counters["timeouts"] >= 1
    assert _store_bytes(store.root) == _store_bytes(reference.root)


def test_all_chaos_kinds_together_converge_byte_identically(tmp_path):
    """The acceptance drill: kills + hangs + errors + corruption at once."""
    reference, _ = _chaos_run(tmp_path, "ref", (), points=6)
    chaos = (
        ChaosSpec("worker_kill", fraction=0.4, seed=11),
        ChaosSpec("point_hang", fraction=0.4, seconds=120.0, seed=12),
        ChaosSpec("transient_error", fraction=0.4, seed=13),
        ChaosSpec("store_corrupt", fraction=0.4, seed=14),
    )
    config = FabricConfig(
        workers=2, point_timeout=0.75, backoff_base=0.001, max_retries=4
    )
    store, outcome = _chaos_run(tmp_path, "chaos", chaos, config, points=6)
    assert outcome.complete and not outcome.failed
    assert outcome.health.anomalies()  # something actually happened
    assert _store_bytes(store.root) == _store_bytes(reference.root)
    # And the data artifacts are byte-identical too.
    for root, name in ((reference, "art_ref"), (store, "art_chaos")):
        campaign = build_campaign("smoke", points=6)
        points_by_sweep, missing = collect_results(campaign, root)
        assert not missing
        write_artifacts(
            campaign,
            points_by_sweep,
            evaluate_checks(campaign, points_by_sweep),
            str(tmp_path / name),
        )
    assert _store_bytes(str(tmp_path / "art_ref")) == _store_bytes(
        str(tmp_path / "art_chaos")
    )


def test_work_stealing_rescues_a_straggler(tmp_path):
    """A hung point with no timeout is rescued by a duplicate dispatch."""
    # seed=6 deterministically hangs exactly one point (position 4), so
    # the other workers keep completing and a steal is the only way out.
    chaos = (ChaosSpec("point_hang", fraction=0.4, seconds=60.0, seed=6),)
    campaign = dataclasses.replace(
        build_campaign("smoke", points=6), chaos=chaos
    )
    config = FabricConfig(
        workers=2,
        straggler_factor=2.0,
        straggler_min_done=2,
        poll_interval=0.02,
    )
    store = ResultStore(str(tmp_path / "s"))
    outcome = run_campaign(campaign, store, fabric=config)
    assert outcome.complete and not outcome.failed
    assert outcome.health.counters["steals"] >= 1
    reference = ResultStore(str(tmp_path / "ref"))
    run_campaign(build_campaign("smoke", points=6), reference)
    assert _store_bytes(store.root) == _store_bytes(reference.root)


# ----------------------------------------------------------------------
# Health bookkeeping
# ----------------------------------------------------------------------
def test_health_event_log_is_bounded():
    health = FabricHealth()
    for i in range(500):
        health.record("retry", f"p[{i}]", 0)
    assert len(health.events) == 200
    assert health.dropped_events == 300
    payload = health.to_dict()
    assert payload["dropped_events"] == 300
    assert payload["counters"]["completed"] == 0


def test_exit_codes_are_distinct():
    assert RESUMABLE_EXIT == 75  # EX_TEMPFAIL
    assert INTERRUPT_EXIT == 130  # 128 + SIGINT
    assert RESUMABLE_EXIT not in (0, 1, 2, INTERRUPT_EXIT)
