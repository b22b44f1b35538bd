"""The benchmark's own tests, on the tiny variant of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps the repository's plain ``pytest`` run from
collecting these: they start a few dozen interpreters and take about a
minute.)
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, EXACT_COUNTERS, PER_LAYER, UNITS, WORKLOADS  # noqa: E402


def _bench(root: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--scale",
            "tiny",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, seed: int, trace: int, repeat: int = 0):
    """``(printed lines, result JSON)`` of one tiny benchmark run.

    ``repeat`` only tells cached calls apart, to run the same thing again.
    """
    done = _bench(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines: list[str], prefix: str) -> str:
    matches = [line for line in lines if line.startswith(prefix + " ")]
    assert len(matches) == 1, (prefix, lines)
    return matches[0]


def _counters(lines: list[str]) -> dict:
    return json.loads(_printed(lines, "counters").split(" ", 1)[1])


def test_benchmark_json_matches_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(row) for row in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    lines, result = tiny_run(workload, 1, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, *_ in END_TO_END}
    for name, unit, _better in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert _printed(lines, name).split()[2] == unit


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_prints_with_its_unit(workload):
    lines, result = tiny_run(workload, 1, 1)
    assert set(result["metrics"]) == {name for name, *_ in PER_LAYER}
    for name, *_ in PER_LAYER:
        assert result["metrics"][name]["unit"] == UNITS[name]
        assert _printed(lines, name).split()[2] == UNITS[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_and_digest_repeat_across_runs(workload):
    first, _ = tiny_run(workload, 1, 1)
    second, _ = tiny_run(workload, 1, 1, repeat=1)
    assert set(_counters(first)) == set(EXACT_COUNTERS)
    assert _counters(first) == _counters(second)
    assert _printed(first, "digest") == _printed(second, "digest")
    # The traced run and the measured run check the same results.
    measured, _ = tiny_run(workload, 1, 0)
    assert _printed(measured, "digest") == _printed(first, "digest")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_the_digest(workload):
    seed1, _ = tiny_run(workload, 1, 0)
    seed2, _ = tiny_run(workload, 2, 0)
    assert _printed(seed1, "digest") != _printed(seed2, "digest")


def test_pooled_sinr_seeds_solve_within_the_slot_band():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.experiments import RunOptions, run

    from workloads import SINR_SEEDS, SINR_SLOT_BAND, sinr_spec

    low, high = SINR_SLOT_BAND
    outside = []
    for seed in SINR_SEEDS:
        results = [run(sinr_spec(seed, k), RunOptions.summary()) for k in (4, 2, 1)]
        slots = sum(int(result.metrics["slots"]) for result in results)
        if not all(result.solved for result in results) or not low <= slots <= high:
            outside.append((seed, slots))
    assert outside == []


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(str(tmp_path), WORKLOADS[0], 1, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
