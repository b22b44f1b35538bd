"""One benchmark process: set up, run campaign cycles, or run points serially.

``run.py`` starts this script in a fresh interpreter for every set-up
sample and once for all the cycles of a run::

    driver.py setup  --workload W --seed S --work DIR
        Time a fresh-interpreter ``import repro`` plus building and
        expanding the workload's campaign and opening its store.
    driver.py cycles --workload W --seed S --work DIR --budget SEC --min-cycles N
        Repeated cycles, each a cold pass (``run_campaign`` on the
        supervised fabric, two freshly forked workers, empty store), then
        fully cached passes over the same store (``run_campaign`` on
        every hit, ``evaluate_checks``, ``evaluate_trace_checks``,
        ``write_artifacts``), then one ``setup`` sample in a fresh
        interpreter.
    driver.py serial --workload W --seed S --work DIR [--traced --spans FILE]
        The same points executed serially in this process through the
        public layer calls, then the same cached pass; with ``--traced``
        every layer call is wrapped in a span and the per-layer counters
        are reported.

Each mode prints one JSON object as its last stdout line.  ``problems``
lists every correctness-gate violation (failed, retried or unsolved
points, corrupt reads, failed checks, cold results that differ from
cached ones); ``run.py`` fails the benchmark when it is not empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

from metrics import WORKERS

CACHED_MIN_S = 2.0
CACHED_MAX_PASSES = 100


def _rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _null_span(_name: str):
    return nullcontext()


def results_digest(store, results) -> str:
    """SHA-256 over the sorted store encodings plus each point's journal."""
    entries = []
    for result in results:
        key, summary = store.encode(result)
        journal = store.backend.get("journal", key) or b""
        entries.append((summary, journal))
    digest = hashlib.sha256()
    for summary, journal in sorted(entries):
        for blob in (summary, journal):
            digest.update(len(blob).to_bytes(8, "big"))
            digest.update(blob)
    return digest.hexdigest()


def cached_pass(campaign, store_dir: str, artifacts_dir: str, span=_null_span):
    """Re-run the campaign over a complete store and regenerate its report.

    Returns ``(run, store, report bytes, problems)``.
    """
    from repro.campaigns import (
        FabricConfig,
        ResultStore,
        evaluate_checks,
        evaluate_trace_checks,
        results_by_sweep,
        run_campaign,
        write_artifacts,
    )

    store = ResultStore(store_dir)
    with span("campaign.cached_run"):
        run = run_campaign(campaign, store, fabric=FabricConfig(workers=WORKERS))
    problems = []
    if run.ran or run.corrupt or not run.complete:
        problems.append(
            f"cached pass was not fully cached: ran {run.ran}, "
            f"corrupt {run.corrupt}, cached {run.cached}/{run.total}"
        )
        return run, store, 0, problems
    points_by_sweep = results_by_sweep(run)
    with span("checks"):
        outcomes = evaluate_checks(campaign, points_by_sweep)
    with span("trace_checks"):
        outcomes += evaluate_trace_checks(campaign, store)
    with span("report"):
        written = write_artifacts(
            campaign, points_by_sweep, outcomes, artifacts_dir, health=run.health
        )
    report_bytes = sum(
        os.path.getsize(os.path.join(artifacts_dir, path)) for path in written
    )
    for outcome in outcomes:
        if not outcome.ok:
            problems.append(f"check {outcome.kind} failed: {outcome.failures[:3]}")
    return run, store, report_bytes, problems


def _unsolved(results) -> list[str]:
    return [f"unsolved point {r.spec.name}" for r in results if not r.solved]


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------
def setup_mode(args) -> dict:
    modules_before = len(sys.modules)
    started = time.perf_counter()
    import repro  # noqa: F401

    imported = time.perf_counter()
    modules = len(sys.modules) - modules_before
    import workloads
    from repro.campaigns import ResultStore, expand_points

    campaign = workloads.build(args.workload, args.seed, args.scale)
    points = expand_points(campaign)
    ResultStore(os.path.join(args.work, "store"))
    finished = time.perf_counter()
    return {
        "setup_s": finished - started,
        "import_s": imported - started,
        "import_modules": modules,
        "points": len(points),
    }


# ----------------------------------------------------------------------
# cycles: cold pass + cached passes on the fabric, repeated
# ----------------------------------------------------------------------
def _setup_sample(args, work: str) -> dict:
    """One ``setup`` in a fresh interpreter, run while this process waits."""
    done = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "setup",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--scale",
            args.scale,
            "--work",
            work,
        ],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"setup sample exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cycles_mode(args) -> dict:
    """Run cycles until ``--budget`` seconds would be passed, at least
    ``--min-cycles`` of them; stop at the first correctness problem.

    Each cycle ends with one set-up sample, so the set-ups are spread
    over the same stretch of time as the passes.
    """
    import workloads

    campaign = workloads.build(args.workload, args.seed, args.scale)
    started = time.perf_counter()
    cycles: list[dict] = []
    setups: list[dict] = []
    while True:
        cycle_started = time.perf_counter()
        work = os.path.join(args.work, f"cycle{len(cycles)}")
        cycles.append(_cycle(campaign, work))
        setups.append(_setup_sample(args, work))
        shutil.rmtree(work, ignore_errors=True)
        now = time.perf_counter()
        if cycles[-1]["problems"]:
            break
        if len(cycles) >= args.min_cycles and (
            now - started + (now - cycle_started) > args.budget
        ):
            break
    return {"cycles": cycles, "setups": setups, "problems": cycles[-1]["problems"]}


def _cycle(campaign, work: str) -> dict:
    from repro.campaigns import FabricConfig, ResultStore, run_campaign
    from repro.experiments.runner import clear_topology_cache

    store_dir = os.path.join(work, "store")
    artifacts_dir = os.path.join(work, "artifacts")

    # Fabric workers fork from this process: they start without the
    # topologies an earlier cycle's checks built here.
    clear_topology_cache()
    started = time.perf_counter()
    cold = run_campaign(
        campaign, ResultStore(store_dir), fabric=FabricConfig(workers=WORKERS)
    )
    cold_s = time.perf_counter() - started

    # The cached pass is repeated (fresh artifacts each time) until it has
    # run for CACHED_MIN_S.  Each repeat starts without the topologies the
    # checks built on the last one, as a fresh ``campaign report`` would.
    cached_walls: list[float] = []
    while True:
        clear_topology_cache()
        started = time.perf_counter()
        cached, store, report_bytes, problems = cached_pass(
            campaign, store_dir, f"{artifacts_dir}{len(cached_walls)}"
        )
        cached_walls.append(time.perf_counter() - started)
        if (
            problems
            or sum(cached_walls) >= CACHED_MIN_S
            or len(cached_walls) >= CACHED_MAX_PASSES
        ):
            break

    counters = cold.health.counters
    failed_points = len(cold.failed) + counters["retried"] + counters["timeouts"]
    if cold.failed:
        problems.append(f"fabric failed {len(cold.failed)} points: {cold.failed[:2]}")
    if counters["retried"] or counters["timeouts"]:
        problems.append(f"fabric anomalies: {cold.health.describe()}")
    if cold.exhausted or not cold.complete:
        problems.append(f"cold pass incomplete: {cold.describe()}")
    unsolved = _unsolved(cold.results)
    failed_points += len(unsolved) + cached.corrupt
    problems += unsolved
    digest = ""
    if not problems:
        if cold.results != cached.results:
            problems.append("cold-pass results differ from the cached read-back")
        digest = results_digest(store, cached.results)
    walls = [result.wall_time for result in cold.results]
    return {
        "cold_s": cold_s,
        "cached_walls": cached_walls,
        "point_walls": walls,
        "rss_driver_mb": _rss_mb(resource.RUSAGE_SELF),
        "rss_worker_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "attempted": cold.total,
        "failed": failed_points,
        "fabric": dict(counters),
        "utilization": sum(walls) / (WORKERS * cold_s) if cold_s > 0 else 0.0,
        "report_bytes": report_bytes,
        "digest": digest,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# serial: the same points in-process, optionally traced
# ----------------------------------------------------------------------
def _install_wrappers(tracer) -> None:
    import repro.campaigns.store as store_module
    from repro.campaigns import ResultStore
    from repro.radio import SINRRadioNetwork, SlottedRadioNetwork
    from repro.runtime import Probe

    for attr in ("encode", "put", "put_journal", "get", "get_journal"):
        tracer.wrap(ResultStore, attr, f"store.{attr}")
    tracer.wrap(store_module, "dump_journal", "journal.encode")
    tracer.wrap(store_module, "loads_journal", "journal.decode")
    for attr in (
        "observe_instances",
        "observe_deliveries",
        "observe_arrivals",
        "observe_fault_plan",
        "observe_clock",
        "events",
    ):
        tracer.wrap(Probe, attr, f"observe.{attr}")
    tracer.wrap(SlottedRadioNetwork, "run_slot", "radio.run_slot", fold=True)
    tracer.wrap(SINRRadioNetwork, "run_slot", "sinr.run_slot", fold=True)


class _Work:
    """Exact work counters accumulated over the executed points."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(
            (
                "sim.events",
                "mac.bcasts",
                "mac.rcvs",
                "mac.deliveries",
                "rng.draws",
                "fmmb.rounds",
                "radio.slots",
                "observe.events",
            ),
            0,
        )
        self._topologies: dict[tuple, list] = {}

    def topology(self, spec, dual) -> None:
        key = (spec.topology.kind, json.dumps(spec.topology.params, sort_keys=True), spec.seed)
        seen = self._topologies.setdefault(key, [])
        if not any(dual is known for known in seen):
            seen.append(dual)

    @property
    def topology_builds(self) -> int:
        return sum(len(duals) for duals in self._topologies.values())

    def point(self, spec, ctx, outcome) -> None:
        metrics = outcome.metrics
        counts = self.counts
        if spec.substrate in ("standard", "protocol"):
            counts["sim.events"] += int(metrics.get("sim_events", 0))
            counts["mac.bcasts"] += outcome.broadcast_count
            counts["mac.rcvs"] += int(metrics.get("rcv_count", 0))
            counts["mac.deliveries"] += outcome.delivered_count
        counts["fmmb.rounds"] += int(metrics.get("rounds_total", 0))
        counts["radio.slots"] += int(metrics.get("slots", 0))
        counts["rng.draws"] += ctx.root.draws
        if ctx.probe.windowed:
            counts["observe.events"] += int(metrics.get("obs_events_folded", 0))
        else:
            counts["observe.events"] += len(ctx.probe)


def _run_point(spec, options, store, journaled, span, work):
    """Execute one point through the layer calls and checkpoint it."""
    from repro.experiments import (
        ExecutionContext,
        ExperimentResult,
        get_substrate,
        materialize_topology,
    )

    started = time.perf_counter()
    with span("topology.build"):
        dual = materialize_topology(spec)
    with span("context"):
        ctx = ExecutionContext(
            spec,
            keep_raw=options.keep_raw,
            window=options.window,
            max_windows=options.max_windows,
        )
    with span("substrate.prepare"):
        execution = get_substrate(spec.substrate).prepare(ctx)
    with span(f"run.{spec.substrate}"):
        outcome = execution.run()
    result = ExperimentResult(
        spec=spec,
        solved=outcome.solved,
        completion_time=outcome.completion_time,
        broadcast_count=outcome.broadcast_count,
        delivered_count=outcome.delivered_count,
        metrics=outcome.metrics,
        series=outcome.series,
        wall_time=time.perf_counter() - started,
    )
    if journaled:
        store.put_journal(spec, outcome.observations)
    store.put(result)
    work.topology(spec, dual)
    work.point(spec, ctx, outcome)
    return result


def serial_mode(args) -> dict:
    import workloads
    from repro.campaigns import ResultStore, expand_points
    from repro.experiments.runner import clear_topology_cache

    from tracing import Tracer

    campaign = workloads.build(args.workload, args.seed, args.scale)
    points = expand_points(campaign)
    directives = {d.name: d for d in campaign.sweeps}
    store_dir = os.path.join(args.work, "store")
    artifacts_dir = os.path.join(args.work, "artifacts")
    tracer = Tracer() if args.traced else None
    span = tracer.span if tracer else _null_span
    work = _Work()
    if tracer:
        _install_wrappers(tracer)
    try:
        started = time.perf_counter()
        store = ResultStore(store_dir)
        results = []
        for point in points:
            directive = directives[point.sweep]
            with span("point"):
                results.append(
                    _run_point(
                        point.spec,
                        directive.run_options(),
                        store,
                        directive.journal,
                        span,
                        work,
                    )
                )
        cold_s = time.perf_counter() - started
        store_writes = store.stats.writes
        # The cached pass rebuilds the topologies its checks need, as it
        # does after a cold pass on the fabric.
        clear_topology_cache()
        cached, cached_store, report_bytes, problems = cached_pass(
            campaign, store_dir, artifacts_dir, span
        )
        wall_s = time.perf_counter() - started
    finally:
        if tracer:
            tracer.restore()
    problems += _unsolved(results)
    digest = ""
    if not problems:
        if results != cached.results:
            problems.append("serial results differ from the cached read-back")
        digest = results_digest(cached_store, cached.results)
    out = {
        "wall_s": wall_s,
        "cold_s": cold_s,
        "digest": digest,
        "problems": problems,
    }
    if tracer:
        if args.spans:
            tracer.write(args.spans)
        out["layers"] = _layers(
            tracer.totals(), work, cached_store, store_writes, report_bytes
        )
    return out


def _layers(totals, work, cached_store, store_writes, report_bytes) -> dict:
    def total(*names):
        return sum((totals.get(name, {}).get("total_s", 0.0) for name in names), 0.0)

    def own(*names):
        return sum((totals.get(name, {}).get("self_s", 0.0) for name in names), 0.0)

    def calls(*names):
        return sum(int(totals.get(name, {}).get("calls", 0)) for name in names)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    journal_bytes = summary_bytes = 0
    for kind, key in cached_store.backend.list_entries():
        size = len(cached_store.backend.get(kind, key) or b"")
        if kind == "journal":
            journal_bytes += size
        else:
            summary_bytes += size
    counts = work.counts
    sim_run_s = own("run.standard", "run.protocol")
    radio_run_s = own("run.radio", "run.sinr")
    observe = [name for name in totals if name.startswith("observe.")]
    layers = {
        "topology.build_s": total("topology.build"),
        "topology.builds": work.topology_builds,
        "substrate.prepare_s": total("substrate.prepare"),
        "sim.run_s": sim_run_s,
        "sim.events_per_s": rate(counts["sim.events"], sim_run_s),
        "fmmb.run_s": own("run.rounds"),
        "radio.slot_calls": calls("radio.run_slot", "sinr.run_slot"),
        "radio.slot_s": total("radio.run_slot", "sinr.run_slot"),
        "radio.slots_per_s": rate(counts["radio.slots"], radio_run_s),
        "observe.s": total(*observe),
        "journal.bytes": journal_bytes,
        "journal.encode_s": total("journal.encode"),
        "journal.decodes": calls("journal.decode"),
        "journal.decode_s": total("journal.decode"),
        "store.encode_s": total("store.encode"),
        "store.put_s": own("store.put", "store.put_journal"),
        "store.bytes": summary_bytes,
        "store.writes": store_writes,
        "store.get_s": own("store.get", "store.get_journal"),
        "store.hits": cached_store.stats.hits,
        "checks.s": own("checks"),
        "trace_checks.s": own("trace_checks"),
        "report.s": total("report"),
        "report.bytes": report_bytes,
    }
    layers.update(counts)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "cycles", "serial"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-cycles", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    mode = {"setup": setup_mode, "cycles": cycles_mode, "serial": serial_mode}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
