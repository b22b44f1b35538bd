"""The repository benchmark: cold and cached campaign passes per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mmb_event --seed 1 --seconds 30 --trace 0

Workloads (built in ``perfbench/workloads.py`` from registry specs, every
input derived from ``--seed``):

* ``mmb_event`` — BMMB under three schedulers plus FMMB on grey-zone
  graphs, summary capture: event kernel, MAC layer, schedulers, rounds.
* ``radio_slots`` — BMMB over collision-radio stars and SINR graphs: the
  slot loop and reception engines, with the event kernel idle.
* ``service_journaled`` — journaled open-arrival service points plus a
  windowed long-horizon sweep: per-point costs, journals, store, checks.

With ``--trace 0`` the end-to-end metrics are measured: one driver
process repeats cycles until ``--seconds`` is used up (at least three
cycles).  A cycle is a cold pass on the two-worker supervised fabric
into an empty store, fully cached passes over it, and one
fresh-interpreter set-up (``setup_s``).  ``setup_s``, ``cold_s`` and
``cached_s`` are the fastest sample of the run; ``point_p50_s`` is the
median over points of each point's fastest cold-pass wall;
``peak_rss_mb`` is the median over cycles.

With ``--trace 1`` the per-layer metrics are measured instead: set-ups
for the import counters, one cycle for the fabric counters, then the
same points executed serially in-process twice, untraced and traced, in
separate fresh processes.  The traced run writes its spans to
``.perfbench_out/``; ``trace.overhead`` compares its wall to the untraced
one.

Correctness gate: the benchmark exits 1 and prints no result when a
point fails, retries, times out, comes back unsolved or reads back
corrupt, when a campaign check or trace check fails, or when the results
digest (SHA-256 over the sorted store encodings plus journal bytes)
differs between the cold pass, the cached pass, the serial runs or the
cycles.  The last stdout line is the JSON result; the lines before it
name every metric with its unit, the exact counters and the digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DRIVER = os.path.join(HERE, "driver.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORK = os.path.join(WORK_ROOT, str(os.getpid()))
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from metrics import (  # noqa: E402
    END_TO_END,
    EXACT_COUNTERS,
    PER_LAYER,
    SCALES,
    UNITS,
    WORKERS,
    WORKLOADS,
)

SETUP_SAMPLES = 5
MIN_CYCLES = 3
#: Every run, traced or not, ends within this many seconds of its start.
DEADLINE_S = 170


class BenchError(Exception):
    """A failed child process or a correctness-gate violation."""


def _child(mode: str, args, tag: str, extra: tuple[str, ...] = ()) -> dict:
    """Run one driver process to completion and return its JSON result."""
    work = os.path.join(WORK, tag)
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable,
        DRIVER,
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--work",
        work,
        *extra,
    ]
    # Own session, so a timeout can stop the driver and its fabric workers.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(
            timeout=max(1.0, args.deadline - time.perf_counter())
        )
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"driver {mode} still running {DEADLINE_S}s into the run")
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise BenchError(f"driver {mode} exited with status {process.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = result.get("problems", [])
    if problems:
        raise BenchError(f"correctness gate ({mode}): " + "; ".join(problems))
    return result


def _warm_up(args) -> None:
    # One untimed set-up first: it compiles bytecode and warms the file
    # cache, which a user pays once per install, not once per run.
    _child("setup", args, "warm")


def _setups(args) -> list[dict]:
    _warm_up(args)
    return [_child("setup", args, f"setup{i}") for i in range(SETUP_SAMPLES)]


def _same_digest(digests: list[str]) -> str:
    if len(set(digests)) != 1:
        raise BenchError(f"results digest differs between runs: {sorted(set(digests))}")
    return digests[0]


def _line(name: str, value, note: str = "") -> None:
    suffix = f" ({note})" if note else ""
    print(f"{name} {value} {UNITS[name]}{suffix}")


def measure(args) -> dict:
    """End-to-end metrics over repeated set-ups and cold + cached cycles.

    The timings are best-of-N: the benchmark host's speed drifts by tens
    of percent over seconds to minutes, and the fastest of many samples
    spread over the whole run moves far less with it than their median
    does (which is printed alongside).
    """
    started = time.perf_counter()
    _warm_up(args)
    # One driver process runs every cycle (each ending with a set-up
    # sample), stopping before a cycle that would end past --seconds.
    budget = args.seconds - (time.perf_counter() - started)
    run = _child(
        "cycles", args, "cycles", ("--budget", f"{budget:.3f}", "--min-cycles", str(MIN_CYCLES))
    )
    cycles, setups = run["cycles"], run["setups"]
    digest = _same_digest([cycle["digest"] for cycle in cycles])
    # Each point's fastest cold-pass wall, then the median over points.
    point_walls = list(zip(*(cycle["point_walls"] for cycle in cycles)))
    best_walls = [min(walls) for walls in point_walls]
    cached_walls = [wall for cycle in cycles for wall in cycle["cached_walls"]]
    attempted = sum(cycle["attempted"] for cycle in cycles)
    failed = sum(cycle["failed"] for cycle in cycles)
    samples = {
        "setup_s": [s["setup_s"] for s in setups],
        "cold_s": [c["cold_s"] for c in cycles],
        "cached_s": cached_walls,
        "point_p50_s": [wall for walls in point_walls for wall in walls],
        "peak_rss_mb": [c["rss_driver_mb"] + c["rss_worker_mb"] for c in cycles],
    }
    metrics = {
        "setup_s": min(samples["setup_s"]),
        "cold_s": min(samples["cold_s"]),
        "cached_s": min(cached_walls),
        "point_p50_s": statistics.median(best_walls),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    points = cycles[0]["attempted"]
    notes = {
        "setup_s": f"fastest of {len(setups)} fresh-interpreter set-ups",
        "cold_s": f"fastest of {len(cycles)} cold passes on {WORKERS} fabric workers",
        "cached_s": f"fastest of {len(cached_walls)} cached passes in {len(cycles)} cycles",
        "point_p50_s": f"median over {points} points of each point's fastest wall "
        f"in {len(cycles)} cold passes",
        "peak_rss_mb": f"median of {len(cycles)}; driver peak + largest fabric worker peak",
    }
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}")
    for name, _unit, _better in END_TO_END:
        median = statistics.median(samples[name])
        _line(name, f"{metrics[name]:.6f}", f"{notes[name]}; median sample {median:.6f}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} failed of {attempted} attempted points)")
    print(f"digest sha256:{digest}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def trace(args) -> dict:
    """Per-layer metrics: import counters, fabric counters, traced serial run."""
    setups = _setups(args)
    cycle = _child("cycles", args, "cycles")["cycles"][0]
    untraced = _child("serial", args, "untraced")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = _child("serial", args, "traced", ("--traced", "--spans", spans))
    digest = _same_digest([cycle["digest"], untraced["digest"], traced["digest"]])
    fabric = cycle["fabric"]
    if len({s["import_modules"] for s in setups}) != 1:
        raise BenchError("import.modules differs between fresh interpreters")
    layers = dict(traced["layers"])
    layers.update(
        {
            "import.modules": setups[0]["import_modules"],
            "import.s": statistics.median(s["import_s"] for s in setups),
            "fabric.dispatched": fabric["dispatched"],
            "fabric.retried": fabric["retried"],
            "fabric.failed": fabric["gave_up"],
            "fabric.utilization": cycle["utilization"],
            "trace.overhead": traced["wall_s"] / untraced["wall_s"] - 1.0,
        }
    )
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} (traced)")
    for name, _unit, _better, module, moves in PER_LAYER:
        value = layers[name]
        shown = value if isinstance(value, int) else f"{value:.6f}"
        _line(name, shown, f"{module}; moves {moves}")
    print(
        f"tracing overhead {layers['trace.overhead'] * 100:.1f}% "
        f"(traced serial {traced['wall_s']:.3f} s vs untraced {untraced['wall_s']:.3f} s)"
    )
    counters = {name: layers[name] for name in EXACT_COUNTERS}
    print("counters " + json.dumps(counters, sort_keys=True))
    print(f"digest sha256:{digest}")
    print(f"spans {os.path.relpath(spans, ROOT)}")
    metrics = {name: layers[name] for name, *_ in PER_LAYER}
    return {"attempted": cycle["attempted"], "failed": cycle["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="full",
        help="'tiny' runs each workload's shape in seconds (the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    args.deadline = time.perf_counter() + DEADLINE_S
    # Stopped from outside, still stop the driver process group in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        outcome = trace(args) if args.trace else measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
