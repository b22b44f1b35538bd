"""Tests for the repro.perf harness, report machinery, and CLI plumbing."""

from __future__ import annotations

import json

import pytest

from repro import perf
from repro.errors import ExperimentError
from repro.experiments.runner import materialize_topology
from repro.experiments.specs import ExperimentSpec, TopologySpec
from repro.experiments.sweep import Sweep, run_sweep
from repro.perf.harness import BenchRecord, measure
from repro.perf.report import build_report, compare_reports, load_report, write_report
from tests.golden.record import SCENARIOS


def _record(name: str, wall: float, suite: str = "micro") -> BenchRecord:
    return BenchRecord(
        name=name,
        suite=suite,
        wall_seconds=wall,
        mean_seconds=wall,
        repeats=1,
        events=1000.0,
        events_per_second=1000.0 / wall,
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def test_measure_keeps_best_run_and_mean():
    walls = iter([0.0, 0.0, 0.0])

    def fn():
        next(walls)
        return (10.0, {"phase": 1.0}, {"fact": 2.0})

    record = measure("x", "micro", fn, repeats=3)
    assert record.repeats == 3
    assert record.events == 10.0
    assert record.events_per_second == pytest.approx(10.0 / record.wall_seconds)
    assert record.phases == {"phase": 1.0}
    assert record.extra == {"fact": 2.0}


def test_measure_rejects_bad_repeats():
    with pytest.raises(ValueError):
        measure("x", "micro", lambda: (None, {}, {}), repeats=0)


def test_bench_record_as_dict_round_trips_json():
    record = _record("kernel_churn", 0.5)
    payload = json.loads(json.dumps(record.as_dict()))
    assert payload["name"] == "kernel_churn"
    assert payload["suite"] == "micro"
    assert payload["wall_seconds"] == 0.5


# ----------------------------------------------------------------------
# Reports and regression comparison
# ----------------------------------------------------------------------
def test_report_write_load_round_trip(tmp_path):
    report = build_report([_record("a", 0.25)], calibration_seconds=0.1)
    path = tmp_path / "BENCH_PERF.json"
    write_report(str(path), report)
    loaded = load_report(str(path))
    assert loaded["records"][0]["name"] == "a"
    assert loaded["calibration_seconds"] == 0.1


def test_load_report_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 999}')
    with pytest.raises(ExperimentError):
        load_report(str(path))


def test_compare_reports_flags_regression_beyond_threshold():
    baseline = build_report([_record("a", 0.10)], calibration_seconds=0.1)
    current = build_report([_record("a", 0.20)], calibration_seconds=0.1)
    regressions, ratios, uncovered = compare_reports(current, baseline, max_regression=0.25)
    assert ratios["micro/a"] == pytest.approx(2.0)
    assert uncovered == []
    assert len(regressions) == 1
    assert "micro/a" in regressions[0].describe()


def test_compare_reports_normalizes_by_calibration():
    # Same workload measured on a machine that is 2x slower across the
    # board (calibration doubles too): no regression.
    baseline = build_report([_record("a", 0.10)], calibration_seconds=0.1)
    current = build_report([_record("a", 0.20)], calibration_seconds=0.2)
    regressions, ratios, uncovered = compare_reports(current, baseline, max_regression=0.25)
    assert ratios["micro/a"] == pytest.approx(1.0)
    assert regressions == []


def test_compare_reports_reports_uncovered_benchmarks():
    baseline = build_report([_record("only_old", 0.1)], calibration_seconds=0.1)
    current = build_report([_record("only_new", 0.1)], calibration_seconds=0.1)
    regressions, ratios, uncovered = compare_reports(current, baseline)
    assert regressions == [] and ratios == {}
    assert uncovered == ["micro/only_new"]


def test_build_report_embeds_before_and_speedups():
    before = build_report([_record("a", 0.4)], calibration_seconds=0.1)
    after = build_report(
        [_record("a", 0.1)], calibration_seconds=0.1, before=before
    )
    assert after["speedup"]["micro/a"] == pytest.approx(4.0)
    assert after["before"]["records"][0]["wall_seconds"] == 0.4


# ----------------------------------------------------------------------
# Suite definitions
# ----------------------------------------------------------------------
def test_macro_scenarios_cover_every_default_size_family():
    assert set(perf.DEFAULT_SIZES) == set(perf.SCENARIOS)


def test_micro_suite_runs_smallest_benchmark():
    record = perf.MICRO_BENCHMARKS["kernel_zero_delay"](1)
    assert record.suite == "micro"
    assert record.wall_seconds > 0
    assert record.events and record.events > 0


def test_macro_scenario_specs_build_and_run_small():
    record = perf.run_macro_scenario("bmmb_uniform", 64, repeats=1)
    assert record.extra["solved"] == 1.0
    assert record.phases["total"] >= record.phases["execute"]


# ----------------------------------------------------------------------
# Parallel sweeps
# ----------------------------------------------------------------------
def test_parallel_chunked_sweep_matches_serial():
    base = SCENARIOS["bmmb_uniform"]
    specs = Sweep.grid(base, axes={"workload.k": [2, 3]}, repeats=2)
    serial = run_sweep(specs, workers=None)
    parallel = run_sweep(specs, workers=2)
    assert list(serial.results) == list(parallel.results)


# ----------------------------------------------------------------------
# Topology memoization
# ----------------------------------------------------------------------
def test_materialize_topology_memoizes_identical_requests():
    spec = ExperimentSpec(topology=TopologySpec("line", {"n": 8}), seed=3)
    first = materialize_topology(spec)
    second = materialize_topology(spec)
    assert first is second


def test_materialize_topology_distinguishes_seeds_and_params():
    spec_a = ExperimentSpec(topology=TopologySpec("line", {"n": 8}), seed=3)
    spec_b = ExperimentSpec(topology=TopologySpec("line", {"n": 8}), seed=4)
    spec_c = ExperimentSpec(topology=TopologySpec("line", {"n": 9}), seed=3)
    built_a = materialize_topology(spec_a)
    assert materialize_topology(spec_b) is not built_a
    assert materialize_topology(spec_c) is not built_a


# ----------------------------------------------------------------------
# CLI robustness
# ----------------------------------------------------------------------
def test_cmd_perf_rejects_bad_macro_sizes_before_calibrating(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["perf", "--suite", "macro", "--macro-sizes", "64,abc"])
    # Fail-fast: the host calibration must not have started.
    assert "calibrating" not in capsys.readouterr().err


def test_cmd_perf_rejects_missing_baseline_cleanly(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["perf", "--suite", "micro", "--baseline", "/nonexistent.json"])
    assert "calibrating" not in capsys.readouterr().err
