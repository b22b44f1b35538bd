"""Command-line interface: explore the paper's experiments from a shell.

Subcommands:

* ``info`` — generate a topology, print its summary, and list the
  experiment registries.
* ``registry`` — list every registered topology, scheduler, algorithm,
  MAC layer, workload, arrival process, fault scenario, and substrate.
* ``bmmb`` — run BMMB on a generated topology with a chosen scheduler and
  print completion vs the paper's bound.
* ``fmmb`` — run FMMB on a grey-zone network and print per-subroutine
  round counts vs the Theorem 4.1 budget.
* ``sweep`` — replicate a BMMB experiment over derived seeds (and optional
  ``--param`` axes), optionally across worker processes, and print
  aggregate percentiles; ``--json`` dumps the per-run rows (with each
  run's spec) for external analysis.
* ``campaign`` — list/run/resume/report/verify/diff the built-in
  reproduction campaigns (``repro campaign list`` names them): sharded,
  checkpointed sweeps that regenerate the paper's figures into
  ``artifacts/`` and validate them with machine checks.  ``--store``
  takes a directory *or* an ``http(s)://`` store URL served by ``repro
  store serve``, so many workers can share one store across machines.
* ``store`` — result-store backend tools: ``serve`` a store directory
  over HTTP for distributed campaigns, ``sync`` two stores, ``verify``
  every entry's document-level integrity, ``gc`` entries no campaign
  claims.
* ``trace`` — inspect persisted observation journals (see
  :mod:`repro.runtime.journal`): ``dump`` prints decoded events, ``summary``
  aggregates per journal, ``check`` re-runs trace-level checks against a
  journal's embedded spec, ``diff`` compares two journals event by event,
  and ``grep`` scans rendered events with a regex.
* ``lowerbound`` — run the Figure 2 adversary (or the Lemma 3.18 choke)
  and print the measured floor plus the axiom certificate.
* ``radio`` — run BMMB over the decay-backed radio MAC on a star and print
  the realized (empirical) ``Fack``/``Fprog`` gap.

Run-style subcommands accept ``--fault kind:param=value,...`` to inject a
registered fault scenario (crashes, churn, link flapping) into the
execution; under faults, "solved" means solved among the surviving nodes.

All run-style subcommands build an :class:`~repro.experiments.ExperimentSpec`
and hand it to :func:`repro.experiments.run` — the CLI contains no
simulator plumbing of its own (``lowerbound``'s certificate is the
``mac_axioms`` trace check).  Exit status 0 means the run solved/validated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Callable, NamedTuple, Sequence

from repro.analysis.bounds import fmmb_bound_rounds
from repro.analysis.tables import render_table
from repro.errors import ExperimentError
from repro.experiments import (
    ALGORITHMS,
    FAULTS,
    MACS,
    SCHEDULERS,
    SUBSTRATES,
    TOPOLOGIES,
    WORKLOADS,
    AlgorithmSpec,
    ExperimentResult,
    ExperimentSpec,
    FaultSpec,
    ModelSpec,
    RunOptions,
    SchedulerSpec,
    Sweep,
    TopologySpec,
    WorkloadSpec,
    materialize_topology,
    run,
    run_sweep,
)
from repro.experiments.overrides import (
    parse_assignments,
    parse_axes,
    parse_kind_params,
)
from repro.experiments.substrates import topology_facts
from repro.topology.metrics import summarize
from repro.traffic import ARRIVALS


def _topology_spec(args: argparse.Namespace) -> TopologySpec:
    """The grey-zone network every generative subcommand shares."""
    return TopologySpec(
        "random_geometric",
        {
            "n": args.n,
            "side": args.side,
            "c": args.c,
            "grey_edge_probability": args.grey_probability,
        },
    )


_REGISTRIES = (
    ("topology", TOPOLOGIES),
    ("scheduler", SCHEDULERS),
    ("algorithm", ALGORITHMS),
    ("mac", MACS),
    ("workload", WORKLOADS),
    ("arrival", ARRIVALS),
    ("fault", FAULTS),
    ("substrate", SUBSTRATES),
)


def _substrate_capabilities(substrate) -> str:
    """Compact capability summary for the registry table."""
    flags = []
    if substrate.supports_faults:
        flags.append("faults")
    if substrate.supports_arrivals:
        flags.append("arrivals")
    flags.append(f"scheduler={substrate.scheduler_role}")
    return ",".join(flags)


def _substrate_doc(substrate) -> str:
    """One-line doc for the registry table.

    ``describe()`` comes from :class:`SubstrateBase`, not the
    :class:`Substrate` protocol, so a protocol-only third-party
    registration must not crash the table — fall back to its docstring.
    """
    describe = getattr(substrate, "describe", None)
    if callable(describe):
        return describe()
    doc = (getattr(substrate, "__doc__", "") or "").strip()
    return doc.splitlines()[0] if doc else ""


def _parse_fault(text: str | None) -> FaultSpec:
    """Parse ``--fault kind[:param=value,...]`` into a :class:`FaultSpec`."""
    if not text:
        return FaultSpec("none")
    kind = text.partition(":")[0]
    if kind not in FAULTS:
        raise SystemExit(
            f"--fault: unknown fault scenario {kind!r}; registered: "
            f"{', '.join(FAULTS.names())}"
        )
    return FaultSpec(*parse_kind_params(text, flag="--fault"))


def _registry_rows() -> list[dict[str, object]]:
    return [
        {"registry": label, "entries": ", ".join(registry.names())}
        for label, registry in _REGISTRIES
    ]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_info(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(topology=_topology_spec(args), seed=args.seed)
    dual = materialize_topology(spec)
    print(render_table([summarize(dual).as_dict()], title="topology summary"))
    print()
    print(render_table(_registry_rows(), title="experiment registries"))
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    rows = []
    for label, registry in _REGISTRIES:
        for name in registry.names():
            row: dict[str, object] = {"registry": label, "name": name}
            if label == "algorithm":
                row["substrates"] = ", ".join(registry.get(name).substrates)
            if label == "substrate":
                substrate = registry.get(name)
                row["capabilities"] = _substrate_capabilities(substrate)
                row["description"] = _substrate_doc(substrate)
            rows.append(row)
    print(render_table(rows, title="registered experiment components"))
    return 0


def _bmmb_spec(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        name="cli-bmmb",
        topology=_topology_spec(args),
        algorithm=AlgorithmSpec("bmmb"),
        scheduler=SchedulerSpec(args.scheduler),
        workload=WorkloadSpec("one_each", {"k": args.k}),
        fault=_parse_fault(getattr(args, "fault", None)),
        model=ModelSpec(fack=args.fack, fprog=args.fprog),
        substrate=getattr(args, "substrate", "standard"),
        seed=args.seed,
    )


class _Preset(NamedTuple):
    """A run command: spec and title builders, the row after ``solved``,
    the capture, and the columns that must read true for exit status 0."""

    spec: Callable[[argparse.Namespace], ExperimentSpec]
    title: Callable[[argparse.Namespace], str]
    columns: Callable[[argparse.Namespace, ExperimentResult], dict[str, object]]
    options: RunOptions = RunOptions.summary()
    verdict: tuple[str, ...] = ("solved",)


def cmd_run(args: argparse.Namespace) -> int:
    """The one body of ``bmmb``, ``fmmb``, ``lowerbound`` and ``radio``."""
    preset: _Preset = args.preset
    result = run(preset.spec(args), preset.options)
    row = {"solved": result.solved, **preset.columns(args, result)}
    title = preset.title(args)
    if result.spec.fault.enabled:
        metrics = result.metrics
        row["survivors"] = int(metrics.get("survivors", 0))
        row["crashed"] = int(
            metrics.get("nodes_crashed", 0) + metrics.get("nodes_left", 0)
        )
        row["msgs lost"] = int(metrics.get("messages_lost", 0))
        title += f", fault={result.spec.fault.kind}"
    print(render_table([row], title=title))
    return 0 if all(row[column] for column in preset.verdict) else 1


def _bmmb_columns(args, result) -> dict[str, object]:
    from repro.campaigns.checks import bound_value

    return {
        "completion": result.completion_time,
        "(D+k)*Fack bound": bound_value("bmmb_arbitrary", result.spec),
        "broadcasts": result.broadcast_count,
    }


def _fmmb_spec(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        name="cli-fmmb",
        topology=_topology_spec(args),
        algorithm=AlgorithmSpec("fmmb", {"c": args.c}),
        workload=WorkloadSpec("one_each", {"k": args.k}),
        fault=_parse_fault(args.fault),
        model=ModelSpec(fprog=args.fprog, fack=max(args.fprog, 20.0)),
        substrate="rounds",
        seed=args.seed,
    )


def _fmmb_columns(args, result) -> dict[str, object]:
    # Theorem 4.1's round count with unit constants (the campaigns'
    # fmmb_rounds bound is a multiple of it, in time units).
    diameter = topology_facts(result.spec)["diameter"]
    return {
        "MIS valid": bool(result.metrics["mis_valid"]),
        "rounds MIS": int(result.metrics["rounds_mis"]),
        "rounds gather": int(result.metrics["rounds_gather"]),
        "rounds spread": int(result.metrics["rounds_spread"]),
        "rounds total": int(result.metrics["rounds_total"]),
        "budget": round(fmmb_bound_rounds(diameter, args.k, args.n, c=args.c)),
    }


def _lowerbound_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The lower-bound campaigns' adversary spec under this model."""
    from repro.campaigns import builtin

    base = (
        builtin._figure2_base(args.depth)
        if args.gadget == "figure2"
        else builtin._choke_base("choke", args.k)
    )
    model = ModelSpec(fack=args.fack, fprog=args.fprog)
    return dataclasses.replace(base, model=model, seed=args.seed)


def _lowerbound_columns(args, result) -> dict[str, object]:
    from repro.campaigns.checks import bound_value
    from repro.campaigns.trace_checks import run_trace_check

    # The certificate: the adversary is a legal MAC layer, with every
    # instance terminated and every progress bound met.
    violations = run_trace_check(
        "mac_axioms", result.spec, result.observations,
        allow_pending=False, check_progress=True,
    )
    return {
        "completion": result.completion_time,
        "floor": bound_value(f"{args.gadget}_floor", result.spec),
        "axiom-clean": not violations,
    }


def _radio_spec(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        name="cli-radio",
        topology=TopologySpec("star", {"n": args.n}),
        algorithm=AlgorithmSpec("bmmb"),
        workload=WorkloadSpec("one_each", {"nodes": list(range(1, args.n))}),
        fault=_parse_fault(args.fault),
        model=ModelSpec(params={"max_slots": args.max_slots}),
        substrate="radio",
        seed=args.seed,
    )


def _radio_columns(args, result) -> dict[str, object]:
    fack = result.metrics["empirical_fack"]
    fprog = result.metrics["empirical_fprog"]
    return {
        "slots": int(result.metrics["slots"]),
        "empirical Fack": fack,
        "empirical Fprog": fprog,
        "Fack/Fprog": fack / max(fprog, 1e-9),
        "delivery rate": result.metrics["delivery_success_rate"],
    }


_PRESETS = {
    "bmmb": _Preset(
        _bmmb_spec,
        lambda args: f"BMMB on n={args.n} grey-zone network, k={args.k}, "
        f"scheduler={args.scheduler}",
        _bmmb_columns,
    ),
    "fmmb": _Preset(
        _fmmb_spec,
        lambda args: f"FMMB on n={args.n} grey-zone network, k={args.k}",
        _fmmb_columns,
    ),
    "lowerbound": _Preset(
        _lowerbound_spec,
        lambda args: f"Figure 2 adversary, D={args.depth}"
        if args.gadget == "figure2" else f"Lemma 3.18 choke, k={args.k}",
        _lowerbound_columns,
        options=RunOptions.observed(),
        verdict=("solved", "axiom-clean"),
    ),
    "radio": _Preset(
        _radio_spec,
        lambda args: f"BMMB over decay radio MAC, star n={args.n} (footnote 2)",
        _radio_columns,
    ),
}


def _json_safe(value: Any) -> Any:
    """Strict-JSON value: non-finite floats become None, containers recurse."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _sweep_json_payload(base, sweep) -> dict:
    """The ``--json`` document: base spec + per-run rows with spec/metrics.

    Non-scalar gauges ride along in each row's ``series`` object (name →
    ``[[x, y], ...]``) so windowed steady-state data is never dropped
    from the export.
    """
    runs = []
    for row, result in zip(sweep.table_rows(), sweep):
        runs.append(
            {
                **row,
                "metrics": result.metrics,
                "series": {
                    name: [list(point) for point in points]
                    for name, points in sorted(result.series.items())
                },
                "spec": result.spec.to_dict(),
            }
        )
    return _json_safe(
        {
            "base_spec": base.to_dict(),
            "solved_rate": sweep.solved_rate,
            "runs": runs,
        }
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    # --substrate is validated against the live substrate registry by
    # spec construction itself (ExperimentSpec.validate); the resulting
    # ExperimentError lists the registered names and main() converts it
    # to exit status 2.
    base = _bmmb_spec(args)
    axes = parse_axes(args.param, flag="--param")
    journal_dir = getattr(args, "journal_dir", None)
    try:
        specs = Sweep.grid(base, axes=axes, repeats=args.seeds)
        sweep = run_sweep(
            specs,
            workers=args.workers,
            options=RunOptions.observed() if journal_dir is not None else None,
        )
    except (ExperimentError, TypeError) as exc:
        # TypeError: a --param axis fed a builder a kwarg it doesn't take.
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    if not len(sweep):
        # An empty sweep has a vacuous solved rate; CI smoke jobs must
        # not read "ran nothing" as "every point validated".
        print("sweep error: no points to run", file=sys.stderr)
        return 2
    if journal_dir is not None:
        # Journals are named by store key so they line up with (and are
        # byte-identical to) what a journaling campaign would persist.
        if "://" in journal_dir:
            # A store URL: persist through the store backend (campaign
            # layout, shared cache) instead of a flat directory.
            from repro.campaigns.store import ResultStore

            journal_store = ResultStore(journal_dir)
            for result in sweep:
                journal_store.put_journal(result.spec, result.observations)
            print(
                f"wrote {len(sweep)} journals to store {journal_dir}",
                file=sys.stderr,
            )
        else:
            from repro.campaigns.store import encode_journal, spec_key

            os.makedirs(journal_dir, exist_ok=True)
            for result in sweep:
                name = f"{spec_key(result.spec)}.obs.jsonl.gz"
                with open(os.path.join(journal_dir, name), "wb") as fh:
                    fh.write(encode_journal(result.spec, result.observations))
            print(
                f"wrote {len(sweep)} journals under {journal_dir}/",
                file=sys.stderr,
            )
    json_dest = args.json
    if json_dest is not None:
        payload = json.dumps(_sweep_json_payload(base, sweep), sort_keys=True)
        if json_dest == "-":
            # JSON mode owns stdout: no tables, just the document.
            print(payload)
            return 0 if sweep.solved_rate == 1.0 else 1
        with open(json_dest, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    pcts = (
        sweep.completion_percentiles((50.0, 90.0, 100.0))
        if any(r.solved for r in sweep)
        else {50.0: float("inf"), 90.0: float("inf"), 100.0: float("inf")}
    )
    print(render_table(
        [
            {
                "runs": len(sweep),
                "workers": args.workers,
                "solved rate": sweep.solved_rate,
                "p50 completion": pcts[50.0],
                "p90 completion": pcts[90.0],
                "max completion": pcts[100.0],
            }
        ],
        title=f"BMMB sweep: {len(specs)} runs "
              f"({args.seeds} seeds x {max(1, len(specs) // args.seeds)} "
              f"grid points), scheduler={args.scheduler}",
    ))
    if args.verbose:
        print()
        print(render_table(sweep.table_rows(), title="per-run results"))
    return 0 if sweep.solved_rate == 1.0 else 1


def _campaign_rows() -> list[dict[str, object]]:
    from repro.campaigns import CAMPAIGNS, build_campaign, expand_points

    rows = []
    for name in CAMPAIGNS.names():
        campaign = build_campaign(name)
        rows.append(
            {
                "campaign": name,
                "points": len(expand_points(campaign)),
                "sweeps": len(campaign.sweeps),
                "figures": len(campaign.figures),
                "checks": len(campaign.checks),
                "description": CAMPAIGNS.get(name).description,
            }
        )
    return rows


def _campaign_params(args: argparse.Namespace) -> dict[str, Any]:
    params: dict[str, Any] = {}
    if getattr(args, "n_max", None) is not None:
        params["n_max"] = args.n_max
    params.update(parse_assignments(getattr(args, "set", None), flag="--set"))
    return params


def _print_verify(report) -> int:
    """Render a VerifyReport; the exit status is the campaign's verdict."""
    rows = [
        {
            "points": report.total,
            "present": report.present,
            "missing": len(report.missing),
            "checks": len(report.checks),
            "failed checks": sum(1 for c in report.checks if not c.ok),
            "verdict": "ok" if report.ok else "FAIL",
        }
    ]
    print(render_table(rows, title=f"campaign {report.campaign.name} verification"))
    if report.missing:
        print(
            f"missing {len(report.missing)} points (run the remaining "
            f"shards, or `campaign run` to fill in)",
            file=sys.stderr,
        )
        for point in report.missing[:5]:
            print(f"  missing: {point.sweep}[{point.index}]", file=sys.stderr)
    for outcome in report.checks:
        for failure in outcome.failures:
            print(f"CHECK FAIL [{outcome.kind}] {failure}", file=sys.stderr)
    return 0 if report.ok else 1


def _verify_and_report(
    campaigns_mod, campaign, store, artifacts_dir, health=None
) -> int:
    """Shared tail of `campaign run` and `campaign report`: one store
    read drives the verdict, the checks, and the artifact write.  An
    incomplete store still writes (partial) artifacts — report.md then
    enumerates the missing points — but keeps the failing status."""
    report = campaigns_mod.verify_campaign(campaign, store)
    status = _print_verify(report)
    written = campaigns_mod.write_artifacts(
        campaign,
        report.points_by_sweep,
        report.checks,
        artifacts_dir,
        missing=report.missing,
        health=health,
    )
    label = "partial artifacts" if report.missing else "artifacts"
    print(f"wrote {len(written)} {label} under {artifacts_dir}/")
    return status


def _campaign_diff(campaigns_mod, campaign, store, args: argparse.Namespace) -> int:
    """`campaign diff`: point-by-point store comparison, nonzero on drift."""
    if not args.against:
        raise SystemExit(
            "campaign diff needs --against STORE (the store to compare "
            "--store with)"
        )
    store_b = campaigns_mod.ResultStore(args.against)
    report = campaigns_mod.diff_campaign(campaign, store, store_b)
    print(report.describe())
    shown = 0
    for point in report.drifted:
        if shown >= args.diff_limit:
            remaining = len(report.drifted) - shown
            print(f"... {remaining} more drifted points", file=sys.stderr)
            break
        print(f"DRIFT {point.describe()}", file=sys.stderr)
        shown += 1
    return 0 if report.ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro import campaigns

    if args.action == "list":
        print(render_table(_campaign_rows(), title="registered campaigns"))
        return 0
    if not args.name:
        raise SystemExit(f"campaign {args.action} needs a campaign name")
    campaign = campaigns.build_campaign(args.name, **_campaign_params(args))
    store = campaigns.ResultStore(args.store)
    if args.action == "diff":
        return _campaign_diff(campaigns, campaign, store, args)
    if args.action in ("run", "resume"):
        if args.action == "resume" and not store.backend.exists():
            raise SystemExit(
                f"campaign resume: no store at {args.store!r} (nothing to "
                f"resume; use `campaign run` to start one)"
            )
        shard = campaigns.parse_shard(args.shard)
        chaos = tuple(campaigns.parse_chaos(text) for text in (args.chaos or []))
        if chaos:
            campaign = dataclasses.replace(campaign, chaos=chaos)
        fabric = campaigns.FabricConfig(
            workers=args.workers or 1,
            point_timeout=args.timeout,
            max_retries=args.retries,
            backoff_base=args.backoff,
            wall_budget=args.wall_budget,
            point_budget=args.point_budget,
        )
        outcome = campaigns.run_campaign(
            campaign, store, shard=shard, fabric=fabric
        )
        print(outcome.describe())
        status = 0
        if outcome.failed:
            for point, error in outcome.failed:
                print(
                    f"FAILED {point.sweep}[{point.index}]: {error}",
                    file=sys.stderr,
                )
            status = 1
        if outcome.exhausted:
            # Distinct resumable status: everything completed is already
            # checkpointed, so automation can retry with `resume`.
            print(
                f"{outcome.exhausted} exhausted: completed points are "
                f"checkpointed; `repro campaign resume {args.name}` "
                f"continues",
                file=sys.stderr,
            )
            status = campaigns.RESUMABLE_EXIT
        if shard[1] > 1 or args.no_report:
            # A partial shard computes and checkpoints; verdicts belong
            # to the merge step (`campaign verify`/`report`), which sees
            # every shard's results.
            return status
        report_status = _verify_and_report(
            campaigns, campaign, store, args.artifacts, health=outcome.health
        )
        return status or report_status
    if args.action == "verify":
        return _print_verify(campaigns.verify_campaign(campaign, store))
    if args.action == "report":
        return _verify_and_report(campaigns, campaign, store, args.artifacts)
    raise SystemExit(f"unknown campaign action {args.action!r}")


def cmd_store_serve(args: argparse.Namespace) -> int:
    from repro.store import serve

    serve(args.root, host=args.host, port=args.port, quiet=args.quiet)
    return 0


def cmd_store_sync(args: argparse.Namespace) -> int:
    from repro.store import open_backend, sync_stores

    source = open_backend(args.source)
    destination = open_backend(args.dest)
    report = sync_stores(source, destination)
    print(
        f"store sync {source.describe()} -> {destination.describe()}: "
        f"{report.describe()}"
    )
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import open_backend, verify_store

    backend = open_backend(args.target)
    report = verify_store(backend, delete=args.delete)
    print(f"store verify {backend.describe()}: {report.describe()}")
    for problem in report.problems:
        print(
            f"BAD [{problem.kind}] {problem.key}: {problem.reason}",
            file=sys.stderr,
        )
    # --delete heals the store (bad entries become cache misses that the
    # next campaign run recomputes), so a healed store exits clean.
    return 0 if not report.problems or args.delete else 1


def cmd_store_gc(args: argparse.Namespace) -> int:
    from repro import campaigns
    from repro.store import gc_store, open_backend

    backend = open_backend(args.target)
    params = _campaign_params(args)
    keep_keys: set[str] = set()
    for name in args.campaign:
        campaign = campaigns.build_campaign(name, **params)
        keep_keys |= {
            campaigns.spec_key(point.spec)
            for point in campaigns.expand_points(campaign)
        }
    report = gc_store(backend, keep_keys, dry_run=not args.apply)
    print(
        f"store gc {backend.describe()} "
        f"(keeping {', '.join(args.campaign)}): {report.describe()}"
        + ("" if args.apply else " [dry run; pass --apply to delete]")
    )
    return 0


# Trace checks a plain `repro trace check` runs.  ``mac_axioms`` is
# opt-in (--check mac_axioms): journals of faulted or budget-capped runs
# truncate legitimately, and full re-certification is the slowest check.
DEFAULT_TRACE_CHECKS = ("ack_latency", "abort_accounting", "delivery_order")


def _journal_spec(journal, path: str) -> ExperimentSpec:
    """The spec a campaign/sweep journal embeds in its header meta."""
    spec_dict = journal.meta.get("spec")
    if not isinstance(spec_dict, dict):
        raise ExperimentError(
            f"{path}: journal meta carries no embedded spec (hand-written "
            f"journals need a meta {{'spec': <spec dict>}} to be checkable)"
        )
    return ExperimentSpec.from_dict(spec_dict)


def cmd_trace_dump(args: argparse.Namespace) -> int:
    from repro.runtime.journal import read_journal

    journal = read_journal(args.journal)
    if args.meta:
        print(json.dumps(journal.meta, sort_keys=True, indent=1))
        return 0
    kinds = set(args.kind or [])
    emitted = 0
    for obs in journal.observations:
        if kinds and obs.kind not in kinds:
            continue
        if args.limit is not None and emitted >= args.limit:
            break
        print(json.dumps(obs._asdict(), sort_keys=True))
        emitted += 1
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.runtime.journal import read_journal
    from repro.runtime.observations import MAC_KINDS, Observation

    rows = []
    for path in args.journals:
        journal = read_journal(path)
        kind_counts: dict[str, int] = {}
        for obs in journal.observations:
            kind_counts[obs.kind] = kind_counts.get(obs.kind, 0) + 1
        row: dict[str, object] = {
            "journal": os.path.basename(path),
            "events": len(journal.observations),
            "kinds": " ".join(
                f"{kind}:{count}" for kind, count in sorted(kind_counts.items())
            ),
        }
        mac = sorted(
            (obs for obs in journal.observations if obs.kind in MAC_KINDS),
            key=Observation.sort_key,
        )
        if mac:
            bcast_times = {obs.ref: obs.time for obs in mac if obs.kind == "bcast"}
            latencies = [
                obs.time - bcast_times[obs.ref]
                for obs in mac
                if obs.kind == "ack" and obs.ref in bcast_times
            ]
            row.update(
                {
                    "instances": len({obs.ref for obs in mac}),
                    "aborted": kind_counts.get("abort", 0),
                    "span": mac[-1].time - mac[0].time,
                    "mean ack latency": (
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                }
            )
        rows.append(row)
    print(render_table(rows, title=f"{len(rows)} observation journals"))
    return 0


def cmd_trace_check(args: argparse.Namespace) -> int:
    from repro.campaigns.trace_checks import run_trace_check
    from repro.runtime.journal import read_journal

    checks = [
        parse_kind_params(text, flag="--check")
        for text in (args.check or list(DEFAULT_TRACE_CHECKS))
    ]
    failures = 0
    for path in args.journals:
        journal = read_journal(path)
        spec = _journal_spec(journal, path)
        for kind, params in checks:
            found = run_trace_check(kind, spec, journal.observations, **params)
            for failure in found:
                print(f"CHECK FAIL [{kind}] {path}: {failure}", file=sys.stderr)
            failures += len(found)
    checked = len(args.journals) * len(checks)
    verdict = "ok" if not failures else f"{failures} failures"
    print(
        f"trace check: {checked} check runs over "
        f"{len(args.journals)} journals: {verdict}"
    )
    return 0 if not failures else 1


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.runtime.journal import read_journal

    left = read_journal(args.a)
    right = read_journal(args.b)
    if left.meta != right.meta:
        print("meta differs", file=sys.stderr)
    differences = 0
    shown = 0
    for index in range(max(len(left), len(right))):
        lhs = left.observations[index] if index < len(left) else None
        rhs = right.observations[index] if index < len(right) else None
        if lhs == rhs:
            continue
        differences += 1
        if shown < args.limit:
            lhs_text = "-" if lhs is None else json.dumps(lhs._asdict())
            rhs_text = "-" if rhs is None else json.dumps(rhs._asdict())
            print(f"@{index}  a: {lhs_text}")
            print(f"@{index}  b: {rhs_text}")
            shown += 1
    if differences:
        print(
            f"journals differ: {differences} event positions "
            f"({len(left)} vs {len(right)} events)"
        )
        return 1
    identical = left.meta == right.meta
    print("journals identical" if identical else "events identical, meta differs")
    return 0 if identical else 1


def cmd_trace_grep(args: argparse.Namespace) -> int:
    import re

    from repro.runtime.journal import read_journal

    try:
        pattern = re.compile(args.pattern)
    except re.error as exc:
        raise SystemExit(f"bad pattern {args.pattern!r}: {exc}")
    matched = 0
    for path in args.journals:
        journal = read_journal(path)
        for index, obs in enumerate(journal.observations):
            line = json.dumps(obs._asdict(), sort_keys=True)
            if pattern.search(line):
                print(f"{path}:@{index}: {line}")
                matched += 1
    # grep semantics: success means something matched.
    return 0 if matched else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_network_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=40, help="node count")
    parser.add_argument("--side", type=float, default=3.0, help="box side length")
    parser.add_argument("--c", type=float, default=1.6, help="grey-zone constant")
    parser.add_argument(
        "--grey-probability",
        type=float,
        default=0.4,
        help="probability of each grey-band G' edge",
    )


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fack", type=float, default=20.0, help="Fack bound")
    parser.add_argument("--fprog", type=float, default=1.0, help="Fprog bound")


def _add_fault_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault",
        metavar="KIND[:P=V,...]",
        help="inject a fault scenario, e.g. --fault crash_random:fraction=0.2 "
        f"(registered: {', '.join(FAULTS.names())})",
    )


def _add_bmmb_options(parser: argparse.ArgumentParser) -> None:
    _add_network_options(parser)
    _add_model_options(parser)
    _add_fault_option(parser)
    parser.add_argument("--k", type=int, default=4, help="message count")
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULERS.names(),
        default="contention",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multi-Message Broadcast with Abstract "
        "MAC Layers and Unreliable Links' (PODC 2014)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info", help="print a generated topology summary and the registries"
    )
    _add_network_options(p_info)
    p_info.set_defaults(func=cmd_info)

    p_registry = sub.add_parser(
        "registry", help="list registered experiment components"
    )
    p_registry.set_defaults(func=cmd_registry)

    p_bmmb = sub.add_parser("bmmb", help="run BMMB on a grey-zone network")
    _add_bmmb_options(p_bmmb)
    p_bmmb.set_defaults(func=cmd_run, preset=_PRESETS["bmmb"])

    p_fmmb = sub.add_parser("fmmb", help="run FMMB on a grey-zone network")
    _add_network_options(p_fmmb)
    _add_fault_option(p_fmmb)
    p_fmmb.add_argument("--k", type=int, default=4, help="message count")
    p_fmmb.add_argument("--fprog", type=float, default=1.0, help="Fprog bound")
    p_fmmb.set_defaults(func=cmd_run, preset=_PRESETS["fmmb"])

    p_sweep = sub.add_parser(
        "sweep", help="replicate a BMMB experiment over seeds and axes"
    )
    _add_bmmb_options(p_sweep)
    p_sweep.add_argument(
        "--substrate",
        default="standard",
        metavar="NAME",
        help="execution substrate for every point (validated against the "
        "substrate registry; see `repro registry`)",
    )
    p_sweep.add_argument(
        "--seeds", type=int, default=8, help="replications per grid point"
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    p_sweep.add_argument(
        "--param",
        action="append",
        metavar="PATH=V1,V2,...",
        help="sweep axis, e.g. --param workload.k=2,4,8 or "
        "--param model.fack=10,20,40 (repeatable); for an arrival-rate "
        "sweep combine --param workload.kind=open_arrivals with "
        "--param workload.rate=0.005,0.02,0.08 (steady-state gauges "
        "such as metric latency_p95 land in the --json rows)",
    )
    p_sweep.add_argument(
        "--verbose", action="store_true", help="also print per-run rows"
    )
    p_sweep.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="FILE",
        help="dump per-run rows + specs as JSON to FILE ('-' or no value: "
        "stdout only, suppressing the tables)",
    )
    p_sweep.add_argument(
        "--journal-dir",
        metavar="DIR|URL",
        help="persist every run's observation journal under DIR, one "
        "<store-key>.obs.jsonl.gz per run (inspect with `repro trace`); "
        "an http(s):// store URL persists through the store backend "
        "instead (campaign layout, shared across machines)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_campaign = sub.add_parser(
        "campaign",
        help="run resumable reproduction campaigns (paper figures/tables)",
    )
    p_campaign.add_argument(
        "action",
        choices=["list", "run", "resume", "report", "verify", "diff"],
        help="list campaigns; run/resume (checkpointed, cache-hitting) a "
        "campaign; report regenerates artifacts from the store; verify "
        "checks completeness + validation without running; diff compares "
        "what two stores hold point by point (nonzero exit on drift)",
    )
    p_campaign.add_argument(
        "name", nargs="?", help="campaign name (see `campaign list`)"
    )
    p_campaign.add_argument(
        "--n-max",
        type=int,
        default=None,
        help="trim the campaign's size ladders to n <= N (reduced/CI mode; "
        "trimmed points keep their full-campaign store keys)",
    )
    p_campaign.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="extra campaign builder parameter (repeatable), e.g. --set seeds=3",
    )
    p_campaign.add_argument(
        "--store",
        default=os.path.join("artifacts", "store"),
        metavar="DIR|URL",
        help="checkpoint store: a directory, or an http(s):// store URL "
        "served by `repro store serve` (shared across campaigns, shards, "
        "and machines; content-addressed by spec hash; URL options: "
        "?cache=DIR&retries=N&backoff=S&timeout=S)",
    )
    p_campaign.add_argument(
        "--against",
        metavar="DIR|URL",
        help="(diff) the second store to compare --store with",
    )
    p_campaign.add_argument(
        "--diff-limit",
        type=int,
        default=20,
        metavar="N",
        help="(diff) drifted points to print before truncating",
    )
    p_campaign.add_argument(
        "--artifacts",
        default="artifacts",
        metavar="DIR",
        help="where report/run write CSV, ASCII, SVG, and report.md",
    )
    p_campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    p_campaign.add_argument(
        "--shard",
        default="0/1",
        metavar="I/N",
        help="run only shard I of N (split one campaign across CI jobs or "
        "machines sharing/merging a store); partial shards skip the "
        "report step",
    )
    p_campaign.add_argument(
        "--no-report",
        action="store_true",
        help="compute + checkpoint only; skip verification and artifacts",
    )
    p_campaign.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock timeout: an over-budget point's worker "
        "is killed and the point retried; the only way a hung point ends "
        "(--chaos point_hang needs it)",
    )
    p_campaign.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="max retries per point before it is marked failed",
    )
    p_campaign.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="retry backoff base; the exponential schedule is hashed from "
        "the spec key (not wall clock) so reruns retry identically",
    )
    p_campaign.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="campaign wall-clock budget; on exhaustion completed points "
        "stay checkpointed, the report marks missing points, exit is 75 "
        "(resumable)",
    )
    p_campaign.add_argument(
        "--point-budget",
        type=int,
        default=None,
        metavar="N",
        help="max points executed this invocation; exit 75 when work "
        "remains (resumable)",
    )
    p_campaign.add_argument(
        "--chaos",
        action="append",
        metavar="KIND[:P=V,...]",
        help="inject deterministic faults into the fabric (repeatable): "
        "worker_kill, point_hang, transient_error, store_corrupt; e.g. "
        "--chaos worker_kill:fraction=0.5,times=1,seed=0",
    )
    p_campaign.set_defaults(func=cmd_campaign)

    p_store = sub.add_parser(
        "store",
        help="result-store backend tools: serve a store over HTTP, sync "
        "two stores, verify entry integrity, gc unclaimed entries",
    )
    store_sub = p_store.add_subparsers(dest="action", required=True)

    p_serve = store_sub.add_parser(
        "serve",
        help="serve a store directory over HTTP (the layout stays a "
        "plain local store: openable, rsyncable, diffable)",
    )
    p_serve.add_argument(
        "--root",
        default=os.path.join("artifacts", "store"),
        metavar="DIR",
        help="store directory to serve (created if missing)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    p_serve.set_defaults(func=cmd_store_serve)

    p_ssync = store_sub.add_parser(
        "sync",
        help="one-way sync: copy/overwrite entries so DEST covers SOURCE",
    )
    p_ssync.add_argument("source", metavar="SOURCE", help="store dir or URL")
    p_ssync.add_argument("dest", metavar="DEST", help="store dir or URL")
    p_ssync.set_defaults(func=cmd_store_sync)

    p_sverify = store_sub.add_parser(
        "verify",
        help="document-level integrity check of every entry (checksums, "
        "spec round-trips, journal headers)",
    )
    p_sverify.add_argument("target", metavar="STORE", help="store dir or URL")
    p_sverify.add_argument(
        "--delete",
        action="store_true",
        help="remove invalid entries (they become cache misses that the "
        "next campaign run recomputes)",
    )
    p_sverify.set_defaults(func=cmd_store_verify)

    p_sgc = store_sub.add_parser(
        "gc",
        help="prune entries not claimed by the named campaigns (dry run "
        "by default)",
    )
    p_sgc.add_argument("target", metavar="STORE", help="store dir or URL")
    p_sgc.add_argument(
        "--campaign",
        action="append",
        required=True,
        metavar="NAME",
        help="campaign whose points to keep (repeatable)",
    )
    p_sgc.add_argument(
        "--n-max",
        type=int,
        default=None,
        help="build the keep-set campaigns with this n_max",
    )
    p_sgc.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="extra builder parameter for the keep-set campaigns",
    )
    p_sgc.add_argument(
        "--apply", action="store_true", help="actually delete (not a dry run)"
    )
    p_sgc.set_defaults(func=cmd_store_gc)

    p_trace = sub.add_parser(
        "trace",
        help="inspect persisted observation journals (dump/summary/check/"
        "diff/grep)",
    )
    tsub = p_trace.add_subparsers(dest="action", required=True)

    p_dump = tsub.add_parser("dump", help="print a journal's decoded events")
    p_dump.add_argument("journal", help="journal file (.obs.jsonl.gz or .jsonl)")
    p_dump.add_argument(
        "--kind", action="append", metavar="KIND", help="keep only these kinds"
    )
    p_dump.add_argument(
        "--limit", type=int, default=None, help="print at most N events"
    )
    p_dump.add_argument(
        "--meta",
        action="store_true",
        help="print only the header meta (embedded spec + store key)",
    )
    p_dump.set_defaults(func=cmd_trace_dump)

    p_summary = tsub.add_parser(
        "summary", help="aggregate event/instance counts per journal"
    )
    p_summary.add_argument("journals", nargs="+", help="journal files")
    p_summary.set_defaults(func=cmd_trace_summary)

    p_check = tsub.add_parser(
        "check",
        help="run trace-level checks against each journal's embedded spec",
    )
    p_check.add_argument("journals", nargs="+", help="journal files")
    p_check.add_argument(
        "--check",
        action="append",
        metavar="NAME[:K=V,...]",
        help="trace check to run, e.g. ack_latency or ack_latency:fack=40 "
        "(repeatable; default: %s; mac_axioms is opt-in)"
        % ", ".join(DEFAULT_TRACE_CHECKS),
    )
    p_check.set_defaults(func=cmd_trace_check)

    p_diff = tsub.add_parser(
        "diff", help="compare two journals event by event"
    )
    p_diff.add_argument("a", help="left journal")
    p_diff.add_argument("b", help="right journal")
    p_diff.add_argument(
        "--limit", type=int, default=10, help="differing positions to print"
    )
    p_diff.set_defaults(func=cmd_trace_diff)

    p_grep = tsub.add_parser(
        "grep", help="regex-search rendered events across journals"
    )
    p_grep.add_argument("pattern", help="regular expression")
    p_grep.add_argument("journals", nargs="+", help="journal files")
    p_grep.set_defaults(func=cmd_trace_grep)

    p_lb = sub.add_parser("lowerbound", help="run a lower-bound adversary")
    _add_model_options(p_lb)
    p_lb.add_argument(
        "--gadget", choices=["figure2", "choke"], default="figure2"
    )
    p_lb.add_argument("--depth", type=int, default=10, help="Figure 2 line depth")
    p_lb.add_argument("--k", type=int, default=16, help="choke message count")
    p_lb.set_defaults(func=cmd_run, preset=_PRESETS["lowerbound"])

    p_radio = sub.add_parser(
        "radio", help="run BMMB over the decay radio MAC (footnote 2)"
    )
    p_radio.add_argument("--n", type=int, default=12, help="star size")
    p_radio.add_argument(
        "--max-slots", type=int, default=500_000, help="slot budget"
    )
    _add_fault_option(p_radio)
    p_radio.set_defaults(func=cmd_run, preset=_PRESETS["radio"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExperimentError as exc:
        # Bad spec composition (unknown registry key, invalid scenario
        # parameter): report it like the sweep subcommand does instead of
        # dumping a traceback.  Deliberately narrow — anything else is a
        # bug and should keep its stack trace.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C mid-campaign/sweep: everything already checkpointed is
        # safe on disk (the fabric checkpoints per point), so exit with
        # the conventional SIGINT status instead of a traceback and point
        # at the resume path.
        print(
            "interrupted: checkpointed results are kept; "
            "`repro campaign resume` continues a campaign",
            file=sys.stderr,
        )
        from repro.campaigns.supervision import INTERRUPT_EXIT

        return INTERRUPT_EXIT
    except BrokenPipeError:
        # A downstream consumer (head, jq, ...) closed the pipe early;
        # that truncates our output but is not an error on our side.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
