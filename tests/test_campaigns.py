"""Tests for ``repro.campaigns``: specs, store, executor, checks, report.

The resume/corruption tests follow the ``tests/test_perf_golden.py``
approach: byte-for-byte comparison of canonical on-disk output, so any
nondeterminism in the checkpoint/replay path shows up as a diff rather
than a statistical flake.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaigns import (
    CampaignSpec,
    CheckOutcome,
    CheckSpec,
    FigureSpec,
    ResultStore,
    SeriesSpec,
    SweepDirective,
    build_campaign,
    collect_results,
    evaluate_checks,
    evaluate_trace_checks,
    expand_points,
    list_campaigns,
    parse_shard,
    results_by_sweep,
    run_campaign,
    scaled_values,
    shard_points,
    spec_key,
    verify_campaign,
    write_artifacts,
)
from repro.campaigns.checks import CHECKS, Point
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    ModelSpec,
    SchedulerSpec,
    TopologySpec,
    WorkloadSpec,
    run,
)
from repro.experiments.sweep import path_value, with_path

BUILTINS = (
    "figure1",
    "figure2_lowerbound",
    "crossover",
    "fault_resilience",
    "radio_footnote2",
    "saturation",
    "smoke",
)


def tiny_campaign(unsolvable: bool = False, seeds: int = 1) -> CampaignSpec:
    """A fast line-network campaign exercising every directive type."""
    base = ExperimentSpec(
        name="tiny",
        topology=TopologySpec("line", {"n": 5}),
        scheduler=SchedulerSpec("worstcase"),
        workload=WorkloadSpec("single_source", {"node": 0, "count": 1}),
        model=ModelSpec(
            fack=20.0,
            fprog=1.0,
            # A tiny simulated-time wall truncates the run unsolved.
            max_time=0.5 if unsolvable else None,
        ),
        seed=3,
    )
    return CampaignSpec(
        name="tiny",
        title="Tiny test campaign",
        sweeps=(
            SweepDirective(
                name="lines",
                base=base,
                axes={"topology.n": [5, 7]},
                repeats=seeds,
            ),
        ),
        figures=(
            FigureSpec(
                name="t_vs_n",
                title="completion vs n",
                x="topology.n",
                series=(SeriesSpec(sweep="lines"),),
                bound="bmmb_gg",
            ),
        ),
        checks=(
            CheckSpec(kind="solved"),
            CheckSpec(kind="upper_bound", params={"bound": "bmmb_gg"}),
        ),
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_round_trips(name):
    campaign = build_campaign(name)
    assert CampaignSpec.from_json(campaign.to_json()) == campaign


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_reduced_round_trips(name):
    campaign = build_campaign(name, n_max=32)
    assert CampaignSpec.from_json(campaign.to_json()) == campaign
    assert campaign.name == name


def test_builtin_registry_lists_all():
    assert set(BUILTINS) <= set(list_campaigns())


def test_scaled_values_trims_from_the_top():
    assert scaled_values((6, 12, 24, 48), 32) == [6, 12, 24]
    assert scaled_values((6, 12), None) == [6, 12]
    assert scaled_values((6, 12), 3) == [6]  # never empty


@pytest.mark.parametrize("name", ["figure1", "figure2_lowerbound", "radio_footnote2"])
def test_reduced_ladder_points_reuse_full_campaign_keys(name):
    """--n-max keeps ladder-campaign spec hashes: reduced runs warm the cache."""
    full = {spec_key(p.spec) for p in expand_points(build_campaign(name))}
    reduced = {
        spec_key(p.spec)
        for p in expand_points(build_campaign(name, n_max=32))
    }
    assert reduced <= full


def test_zip_axes_pair_replication_seeds():
    campaign = build_campaign("fault_resilience", seeds=2)
    points = [p for p in expand_points(campaign) if p.sweep == "bmmb_crash"]
    by_fraction: dict[float, list[int]] = {}
    for point in points:
        fraction = path_value(point.spec, "fault.fraction")
        by_fraction.setdefault(fraction, []).append(point.spec.seed)
    seeds = list(by_fraction.values())
    assert len(seeds) == 3
    assert seeds[0] == seeds[1] == seeds[2]  # paired across zip rows


def test_zip_axes_length_mismatch_rejected():
    base = tiny_campaign().sweeps[0].base
    with pytest.raises(ExperimentError):
        SweepDirective(
            name="bad",
            base=base,
            zip_axes={"topology.n": [5, 7], "model.fack": [20.0]},
        )


def test_duplicate_sweep_names_rejected():
    directive = tiny_campaign().sweeps[0]
    with pytest.raises(ExperimentError):
        CampaignSpec(name="dup", title="dup", sweeps=(directive, directive))


def test_figure_series_must_name_a_sweep():
    directive = tiny_campaign().sweeps[0]
    with pytest.raises(ExperimentError):
        CampaignSpec(
            name="bad",
            title="bad",
            sweeps=(directive,),
            figures=(
                FigureSpec(
                    name="f",
                    title="f",
                    x="topology.n",
                    series=(SeriesSpec(sweep="nope"),),
                ),
            ),
        )


def test_path_value_reads_what_with_path_wrote():
    spec = tiny_campaign().sweeps[0].base
    assert path_value(spec, "topology.n") == 5
    assert path_value(spec, "model.fack") == 20.0
    assert path_value(spec, "seed") == 3
    assert path_value(with_path(spec, "topology.n", 9), "topology.n") == 9
    with pytest.raises(ExperimentError):
        path_value(spec, "topology.bogus")
    with pytest.raises(ExperimentError):
        path_value(spec, "bogus")


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def test_parse_shard():
    assert parse_shard("0/1") == (0, 1)
    assert parse_shard("1/2") == (1, 2)
    for bad in ("2/2", "-1/2", "x/2", "1", "1/0", "1/x", "0/-3", "5/4"):
        with pytest.raises(ExperimentError):
            parse_shard(bad)


def test_parse_shard_messages_name_the_valid_range():
    with pytest.raises(ExperimentError, match="0/4 through 3/4"):
        parse_shard("4/4")
    with pytest.raises(ExperimentError, match="0/4 through 3/4"):
        parse_shard("-1/4")
    with pytest.raises(ExperimentError, match="positive"):
        parse_shard("0/0")
    with pytest.raises(ExperimentError, match="positive"):
        parse_shard("0/-2")
    with pytest.raises(ExperimentError, match="i/N"):
        parse_shard("nope")


def test_shards_partition_the_points():
    points = expand_points(build_campaign("figure1"))
    shards = [shard_points(points, i, 3) for i in range(3)]
    merged = [p for shard in shards for p in shard]
    assert sorted(merged, key=points.index) == points
    assert sum(len(s) for s in shards) == len(points)


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
def _one_result():
    spec = tiny_campaign().sweeps[0].expand()[0]
    return run(spec, keep_raw=False)


def test_store_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    result = _one_result()
    assert store.get(result.spec) is None
    store.put(result)
    again = store.get(result.spec)
    assert again == result
    assert store.stats.hits == 1
    assert store.stats.misses == 1
    assert store.stats.writes == 1


def test_store_entry_is_strict_json(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    path = store.put(_one_result())
    with open(path, "r", encoding="utf-8") as fh:
        document = json.loads(fh.read())  # strict parse (no NaN/Infinity)
    from repro.campaigns.store import STORE_FORMAT

    assert document["format"] == STORE_FORMAT


@pytest.mark.parametrize(
    "corruption",
    ["truncate", "flip", "not_json", "bad_format", "wrong_digest"],
)
def test_store_detects_corruption_and_reruns(tmp_path, corruption):
    store = ResultStore(str(tmp_path / "store"))
    result = _one_result()
    path = store.put(result)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if corruption == "truncate":
        damaged = text[: len(text) // 2]
    elif corruption == "flip":
        damaged = text.replace('"solved": true', '"solved": false')
    elif corruption == "not_json":
        damaged = "definitely not json{{{"
    elif corruption == "bad_format":
        damaged = text.replace('"format": 2', '"format": 99')
    else:
        damaged = text.replace('"sha256": "', '"sha256": "0000')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(damaged)
    assert store.get(result.spec) is None  # never trusted
    assert store.stats.corrupt == 1
    store.put(result)  # re-run heals the entry ...
    healed = store.get(result.spec)
    assert healed == result  # ... and the replay matches the original


def test_store_rejects_entry_for_a_different_spec(tmp_path):
    """A hash-keyed file whose embedded spec disagrees is not trusted."""
    store = ResultStore(str(tmp_path / "store"))
    result = _one_result()
    path = store.put(result)
    other = result.spec.with_seed(999)
    os.makedirs(os.path.dirname(store.path_for(spec_key(other))), exist_ok=True)
    os.replace(path, store.path_for(spec_key(other)))
    assert store.get(other) is None
    assert store.stats.corrupt == 1


def _hammer_put(root: str, result, times: int) -> None:
    """Subprocess worker: repeatedly checkpoint the same result."""
    store = ResultStore(root)
    for _ in range(times):
        store.put(result)


def test_concurrent_store_writers_leave_one_clean_entry(tmp_path):
    """Two processes put() the same key at once: atomic tmp+rename must
    leave exactly one self-verifying entry and no stray temp files."""
    import multiprocessing

    root = str(tmp_path / "store")
    result = _one_result()
    writers = [
        multiprocessing.Process(target=_hammer_put, args=(root, result, 50))
        for _ in range(2)
    ]
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    files = [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(root)
        for name in names
    ]
    key = spec_key(result.spec)
    assert [os.path.basename(p) for p in files] == [f"{key}.json"]
    assert not any(name.endswith(".tmp") for name in files)
    fresh = ResultStore(root)
    assert fresh.get(result.spec) == result
    assert fresh.stats.corrupt == 0


def test_stale_tmp_files_are_swept_on_campaign_start(tmp_path):
    """Orphaned atomic-write temps from a killed worker get cleaned up,
    but a recent temp (a concurrent writer mid-put) is left alone."""
    campaign = tiny_campaign()
    store = ResultStore(str(tmp_path / "store"))
    bucket = os.path.join(store.root, "ab")
    os.makedirs(bucket)
    stale = os.path.join(bucket, ".deadbeef-123.tmp")
    fresh = os.path.join(bucket, ".cafef00d-456.tmp")
    for path in (stale, fresh):
        with open(path, "w") as fh:
            fh.write("{")
    old = os.path.getmtime(stale) - 7200
    os.utime(stale, (old, old))
    run_campaign(campaign, store)
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)
    assert store.sweep_stale_tmp(max_age_seconds=0.0) == 1  # now it is old


# ----------------------------------------------------------------------
# Executor: run, resume, shards
# ----------------------------------------------------------------------
def test_run_campaign_without_store_runs_everything():
    campaign = tiny_campaign()
    outcome = run_campaign(campaign, store=None)
    assert outcome.ran == outcome.total == 2
    assert outcome.cached == 0
    checks = evaluate_checks(campaign, results_by_sweep(outcome))
    assert all(check.ok for check in checks)


def test_second_run_is_a_pure_cache_replay(tmp_path):
    campaign = tiny_campaign()
    store = ResultStore(str(tmp_path / "store"))
    first = run_campaign(campaign, store)
    second = run_campaign(campaign, store)
    assert first.ran == first.total
    assert second.ran == 0
    assert second.cached == second.total
    assert second.cache_hit_rate == 1.0
    assert "cache hit 100.0%" in second.describe()
    assert second.results == first.results


def _store_bytes(root: str) -> dict[str, bytes]:
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_interrupted_then_resumed_is_byte_identical(tmp_path):
    """Partial store (simulated interruption) + resume == one-shot run."""
    campaign = tiny_campaign(seeds=2)
    uninterrupted = ResultStore(str(tmp_path / "a"))
    run_campaign(campaign, uninterrupted)

    interrupted = ResultStore(str(tmp_path / "b"))
    run_campaign(campaign, interrupted, shard=(0, 2))  # "crash" after shard 0
    resumed = run_campaign(campaign, interrupted)  # resume fills the rest
    assert 0 < resumed.cached < resumed.total

    assert _store_bytes(str(tmp_path / "a")) == _store_bytes(str(tmp_path / "b"))

    art_a, art_b = str(tmp_path / "art_a"), str(tmp_path / "art_b")
    for store, target in ((uninterrupted, art_a), (interrupted, art_b)):
        points, missing = collect_results(campaign, store)
        assert not missing
        write_artifacts(
            campaign, points, evaluate_checks(campaign, points), target
        )
    assert _store_bytes(art_a) == _store_bytes(art_b)


def test_sharded_stores_merge_to_a_complete_campaign(tmp_path):
    campaign = tiny_campaign(seeds=2)
    store = ResultStore(str(tmp_path / "store"))
    for index in range(2):
        outcome = run_campaign(campaign, store, shard=(index, 2))
        assert outcome.total < 4  # strictly partial
    report = verify_campaign(campaign, store)
    assert report.complete and report.ok


def test_verify_reports_missing_points(tmp_path):
    campaign = tiny_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store, shard=(0, 2))
    report = verify_campaign(campaign, store)
    assert not report.complete
    assert not report.ok
    assert not report.checks  # partial campaigns are never check-judged
    assert report.present + len(report.missing) == report.total


def test_corrupt_entry_is_recomputed_on_resume(tmp_path):
    campaign = tiny_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    victim = expand_points(campaign)[0].spec
    path = store.path_for(spec_key(victim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ truncated")
    healed = run_campaign(campaign, store)
    assert healed.ran == 1
    assert healed.corrupt == 1
    assert "1 corrupt entries re-run" in healed.describe()
    assert verify_campaign(campaign, store).ok


def test_failing_check_fails_verification(tmp_path):
    campaign = tiny_campaign(unsolvable=True)
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    report = verify_campaign(campaign, store)
    assert report.complete
    assert not report.ok
    failed = [check for check in report.checks if not check.ok]
    assert failed and any("solved rate" in f for f in failed[0].failures)


def _knee_points(latencies: dict[float, float]) -> dict[str, list[Point]]:
    """Synthetic single-sweep points with a given rate -> p95 curve."""
    points = []
    for i, (rate, p95) in enumerate(sorted(latencies.items())):
        spec = ExperimentSpec(
            name=f"knee-{i}",
            topology=TopologySpec("line", {"n": 4}),
            workload=WorkloadSpec(
                "open_arrivals",
                {"process": "poisson", "rate": rate, "count": 2},
            ),
            seed=i,
        )
        result = ExperimentResult(
            spec=spec,
            solved=True,
            completion_time=1.0,
            broadcast_count=0,
            delivered_count=0,
            metrics={"latency_p95": p95},
        )
        points.append(Point("load", i, spec, result))
    return {"load": points}


def test_saturation_knee_check_passes_on_a_bent_curve():
    check = CHECKS.get("saturation_knee")
    curve = {0.01: 10.0, 0.02: 14.0, 0.08: 90.0, 0.32: 200.0}
    assert check(_knee_points(curve)) == []


def test_saturation_knee_check_fails_on_a_flat_curve():
    check = CHECKS.get("saturation_knee")
    flat = {0.01: 10.0, 0.02: 11.0, 0.08: 12.0, 0.32: 13.0}
    failures = check(_knee_points(flat))
    assert failures and "saturat" in failures[0]


def test_saturation_knee_check_accepts_knee_at_the_lowest_rate():
    """A curve that bends right after its first rate still has a knee —
    the lowest rate itself (the slotted radio substrates sit here)."""
    check = CHECKS.get("saturation_knee")
    bent_at_origin = {0.01: 100.0, 0.02: 400.0, 0.08: 900.0}
    assert check(_knee_points(bent_at_origin), knee_ratio=3.0) == []


def test_saturation_knee_check_needs_enough_points():
    check = CHECKS.get("saturation_knee")
    failures = check(_knee_points({0.01: 10.0, 0.32: 200.0}))
    assert failures and "need >=" in failures[0]


# ----------------------------------------------------------------------
# Report artifacts
# ----------------------------------------------------------------------
def test_artifacts_written_and_deterministic(tmp_path):
    campaign = tiny_campaign()
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    written = write_artifacts(campaign, points, checks, str(tmp_path / "x"))
    assert set(written) == {
        "tiny/points.csv",
        "tiny/t_vs_n.csv",
        "tiny/t_vs_n.txt",
        "tiny/t_vs_n.svg",
        "tiny/report.md",
        "tiny/manifest.json",
    }
    write_artifacts(campaign, points, checks, str(tmp_path / "y"))
    assert _store_bytes(str(tmp_path / "x")) == _store_bytes(str(tmp_path / "y"))
    manifest = json.loads((tmp_path / "x" / "tiny" / "manifest.json").read_text())
    assert manifest["points"] == 2
    assert all(check["ok"] for check in manifest["checks"])
    svg = (tmp_path / "x" / "tiny" / "t_vs_n.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    csv_text = (tmp_path / "x" / "tiny" / "t_vs_n.csv").read_text()
    assert csv_text.splitlines()[0] == "series,topology.n,median,mean,min,max,count"
    assert "bound:bmmb_gg" in csv_text


def test_artifacts_survive_unsolved_points(tmp_path):
    """A completion_time figure over unsolved (inf) points must still render."""
    campaign = tiny_campaign(unsolvable=True)
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    write_artifacts(campaign, points, checks, str(tmp_path / "art"))
    ascii_text = (tmp_path / "art" / "tiny" / "t_vs_n.txt").read_text()
    assert "inf" in ascii_text


# ----------------------------------------------------------------------
# Observation journals + trace-level checks
# ----------------------------------------------------------------------
def journaled_campaign(seeds: int = 1) -> CampaignSpec:
    """The tiny campaign with journaling + trace checks on its sweep."""
    tiny = tiny_campaign(seeds=seeds)
    return CampaignSpec(
        name=tiny.name,
        title=tiny.title,
        sweeps=tuple(
            SweepDirective(
                name=d.name,
                base=d.base,
                axes=d.axes,
                repeats=d.repeats,
                journal=True,
            )
            for d in tiny.sweeps
        ),
        figures=tiny.figures,
        checks=tiny.checks,
        trace_checks=(
            CheckSpec(kind="ack_latency", sweeps=("lines",)),
            CheckSpec(kind="abort_accounting", sweeps=("lines",)),
            CheckSpec(kind="delivery_order", sweeps=("lines",)),
            CheckSpec(kind="mac_axioms", sweeps=("lines",)),
        ),
    )


def test_journaling_campaign_persists_readable_journals(tmp_path):
    campaign = journaled_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    for point in expand_points(campaign):
        assert store.has_journal(point.spec)
        journal = store.get_journal(point.spec)
        assert journal is not None and len(journal) > 0
        assert journal.meta["spec_key"] == spec_key(point.spec)
        assert ExperimentSpec.from_dict(journal.meta["spec"]) == point.spec


def test_trace_checks_pass_on_real_journals(tmp_path):
    campaign = journaled_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    report = verify_campaign(campaign, store)
    assert report.ok
    kinds = {outcome.kind for outcome in report.checks}
    assert {
        "trace:ack_latency",
        "trace:abort_accounting",
        "trace:delivery_order",
        "trace:mac_axioms",
    } <= kinds


def test_summary_hit_without_journal_reruns_the_point(tmp_path):
    campaign = journaled_campaign()
    store = ResultStore(str(tmp_path / "store"))
    first = run_campaign(campaign, store)
    victim = expand_points(campaign)[0].spec
    os.unlink(store.journal_path_for(spec_key(victim)))
    second = run_campaign(campaign, store)
    assert second.ran == 1
    assert second.cached == first.total - 1
    assert store.has_journal(victim)  # the re-run healed the store


def write_violated_journal(store: ResultStore, spec: ExperimentSpec) -> None:
    """Replace ``spec``'s stored journal with a hand-written bad stream."""
    key = spec_key(spec)
    rows = [
        [0.0, "bcast", 0, "m0", 0, 1.0],
        [100.0, "ack", 0, "m0", 0, 1.0],  # latency 100 >> fack 20
        [0.5, "deliver", 1, "m0", -1, 1.0],
        [0.5, "deliver", 1, "m0", -1, 1.0],  # duplicate delivery
    ]
    header = {
        "format": 1,
        "kind": "observation-journal",
        "count": len(rows),
        "meta": {"spec": spec.to_dict(), "spec_key": key},
    }
    lines = [json.dumps(header)] + [json.dumps(r) for r in rows]
    with open(store.journal_path_for(key), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_violated_journal_fails_verification(tmp_path):
    campaign = journaled_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    write_violated_journal(store, expand_points(campaign)[0].spec)
    report = verify_campaign(campaign, store)
    assert not report.ok
    failed = {o.kind for o in report.checks if not o.ok}
    assert "trace:ack_latency" in failed
    assert "trace:delivery_order" in failed


def test_trace_checks_decode_each_journal_once(tmp_path, monkeypatch):
    campaign = journaled_campaign(seeds=2)
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    points = expand_points(campaign)
    write_violated_journal(store, points[1].spec)
    with open(store.journal_path_for(spec_key(points[2].spec)), "r+b") as fh:
        fh.truncate(12)
    fetched = []
    get_journal = ResultStore.get_journal

    def counting_get_journal(self, spec):
        fetched.append(spec_key(spec))
        return get_journal(self, spec)

    monkeypatch.setattr(ResultStore, "get_journal", counting_get_journal)
    fresh = ResultStore(store.root)
    outcomes = evaluate_trace_checks(campaign, fresh)
    assert fetched == [spec_key(point.spec) for point in points]
    assert fresh.stats.corrupt == 1
    # The outcomes of the former check-major loop, check by check.
    violated = "lines[1] 'tiny[topology.n=5#1]'"
    unreadable = "lines[2] 'tiny[topology.n=7#0]': no readable journal in store"
    assert outcomes == [
        CheckOutcome(
            "trace:ack_latency",
            ("lines",),
            (
                f"{violated}: instance 0 ('m0'): ack latency 100 exceeds fack 20",
                unreadable,
            ),
        ),
        CheckOutcome("trace:abort_accounting", ("lines",), (unreadable,)),
        CheckOutcome(
            "trace:delivery_order",
            ("lines",),
            (f"{violated}: node 1 delivered message 'm0' twice", unreadable),
        ),
        CheckOutcome(
            "trace:mac_axioms",
            ("lines",),
            (
                f"{violated}: inst 0: ack without rcv at G-neighbor 1",
                f"{violated}: inst 0: ack latency 100.0 exceeds Fack=20.0",
                unreadable,
            ),
        ),
    ]


def test_missing_journal_is_a_trace_check_failure(tmp_path):
    campaign = journaled_campaign()
    store = ResultStore(str(tmp_path / "store"))
    outcome = run_campaign(campaign, store)
    assert outcome.total > 0
    for point in expand_points(campaign):
        os.unlink(store.journal_path_for(spec_key(point.spec)))
    outcomes = evaluate_trace_checks(campaign, store)
    assert outcomes and all(not o.ok for o in outcomes)
    assert any("no readable journal" in f for o in outcomes for f in o.failures)


def test_corrupt_journal_reads_as_missing(tmp_path):
    campaign = journaled_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    spec = expand_points(campaign)[0].spec
    path = store.journal_path_for(spec_key(spec))
    with open(path, "r+b") as fh:
        fh.truncate(12)
    fresh = ResultStore(store.root)
    assert fresh.get_journal(spec) is None
    assert fresh.stats.corrupt == 1


def test_journals_are_byte_identical_across_shards(tmp_path):
    campaign = journaled_campaign(seeds=2)
    whole = ResultStore(str(tmp_path / "whole"))
    run_campaign(campaign, whole)
    shard_a = ResultStore(str(tmp_path / "a"))
    shard_b = ResultStore(str(tmp_path / "b"))
    run_campaign(campaign, shard_a, shard=(0, 2))
    run_campaign(campaign, shard_b, shard=(1, 2))
    merged = {**_store_bytes(shard_a.root), **_store_bytes(shard_b.root)}
    whole_bytes = _store_bytes(whole.root)
    journal_names = [n for n in whole_bytes if n.endswith(".obs.jsonl.gz")]
    assert journal_names
    for name in journal_names:
        assert merged[name] == whole_bytes[name], name


def test_trace_checks_require_a_journaling_sweep():
    tiny = tiny_campaign()
    with pytest.raises(ExperimentError, match="journal"):
        CampaignSpec(
            name=tiny.name,
            title=tiny.title,
            sweeps=tiny.sweeps,  # journal=False everywhere
            trace_checks=(CheckSpec(kind="ack_latency"),),
        )


def test_journal_directive_degrades_without_a_store():
    campaign = journaled_campaign()
    outcome = run_campaign(campaign, store=None)
    assert outcome.ran == outcome.total
    assert all(r.observations == () for r in outcome.results)


def test_unknown_trace_check_kind_is_rejected(tmp_path):
    from repro.campaigns import run_trace_check

    spec = expand_points(tiny_campaign())[0].spec
    with pytest.raises(ExperimentError, match="trace check"):
        run_trace_check("nope", spec, ())
    with pytest.raises(ExperimentError, match="rejected params"):
        run_trace_check("ack_latency", spec, (), bogus=1)


# ----------------------------------------------------------------------
# Per-window series figures + points.csv series column
# ----------------------------------------------------------------------
def series_campaign() -> CampaignSpec:
    base = ExperimentSpec(
        name="series-tiny",
        topology=TopologySpec(
            "random_geometric",
            {"n": 10, "side": 2.0, "c": 1.6, "grey_edge_probability": 0.4},
        ),
        scheduler=SchedulerSpec("uniform"),
        workload=WorkloadSpec(
            "open_arrivals", {"process": "poisson", "rate": 0.02, "count": 6}
        ),
        model=ModelSpec(fack=20.0, fprog=1.0),
        seed=5,
    )
    return CampaignSpec(
        name="series-tiny",
        title="windowed latency series",
        sweeps=(
            SweepDirective(
                name="open",
                base=base,
                axes={"workload.rate": [0.02, 0.05]},
            ),
        ),
        figures=(
            FigureSpec(
                name="win_latency",
                title="per-window latency",
                x="window",
                series=(
                    SeriesSpec(
                        sweep="open",
                        y="series:window_latency_mean",
                        agg="mean",
                        label="open",
                    ),
                ),
            ),
        ),
        checks=(CheckSpec(kind="solved"),),
    )


def test_series_figure_pools_per_run_curves(tmp_path):
    campaign = series_campaign()
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    written = write_artifacts(campaign, points, checks, str(tmp_path / "art"))
    assert "series-tiny/win_latency.csv" in written
    csv_path = tmp_path / "art" / "series-tiny" / "win_latency.csv"
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "series,window,median,mean,min,max,count"
    assert len(rows) > 1  # at least one pooled window bucket


def test_points_csv_carries_the_series_column(tmp_path):
    campaign = series_campaign()
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    checks = evaluate_checks(campaign, points)
    write_artifacts(campaign, points, checks, str(tmp_path / "art"))
    csv_path = tmp_path / "art" / "series-tiny" / "points.csv"
    rows = csv_path.read_text().splitlines()
    assert rows[0].endswith(",metrics,series")
    assert "window_latency_mean" in rows[1]


def test_series_figure_names_missing_series_loudly():
    from repro.campaigns.report import series_data

    campaign = tiny_campaign()  # one_each workload records no series
    outcome = run_campaign(campaign, store=None)
    points = results_by_sweep(outcome)
    figure = FigureSpec(
        name="bad",
        title="bad",
        x="window",
        series=(
            SeriesSpec(sweep="lines", y="series:nope", agg="mean", label="x"),
        ),
    )
    with pytest.raises(ExperimentError, match="nope"):
        series_data(figure, points)


def test_result_series_round_trips_through_the_store(tmp_path):
    campaign = series_campaign()
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(campaign, store)
    points, missing = collect_results(campaign, store)
    assert not missing
    for point in points["open"]:
        assert point.result.series["window_throughput"]
