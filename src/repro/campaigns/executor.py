"""Campaign execution: deterministic sharding + supervised checkpoints.

The executor turns a :class:`~repro.campaigns.spec.CampaignSpec` into its
flat point list (sweeps in listed order, grid order within each), assigns
points to shards round-robin by global index, and hands each shard's
missing points to the supervised fabric
(:mod:`repro.campaigns.supervision`): a work-queue supervisor dispatches
points to a pool of worker processes with per-point timeouts (the one
recovery for a hung point: kill its worker and retry), bounded
deterministic-backoff retries, and wall-clock / point budgets — every
completed point lands in the :class:`~repro.campaigns.store.ResultStore`
before the next is handed out, so an interrupted campaign loses at most
the in-flight points and ``run`` twice is a 100%-cache-hit no-op.

Execution and verdicts are decoupled: :func:`run_campaign` computes and
checkpoints, :func:`collect_results` reads a (possibly multi-shard) store
back, and :func:`evaluate_checks` applies the campaign's validation
directives to a complete result set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaigns.checks import CHECKS, Point, PointsBySweep
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore, spec_key
from repro.campaigns.supervision import (
    FabricConfig,
    FabricHealth,
    FabricJob,
    run_supervised,
)
from repro.campaigns.trace_checks import run_trace_check
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult
from repro.experiments.specs import ExperimentSpec
from repro.experiments.substrates import Facts


@dataclass(frozen=True)
class CampaignPoint:
    """One point of a campaign: where it came from and what to run."""

    sweep: str
    index: int
    spec: ExperimentSpec


def expand_points(campaign: CampaignSpec) -> list[CampaignPoint]:
    """Every point of the campaign, in deterministic global order."""
    points: list[CampaignPoint] = []
    for directive in campaign.sweeps:
        for index, spec in enumerate(directive.expand()):
            points.append(CampaignPoint(directive.name, index, spec))
    return points


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/N"`` into ``(index, count)`` with bounds checking."""
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ExperimentError(
            f"shard must look like i/N (e.g. 0/2), got {text!r}"
        ) from None
    if count < 1:
        raise ExperimentError(
            f"shard count must be a positive integer, got {text!r} (need N >= 1)"
        )
    if not 0 <= index < count:
        raise ExperimentError(
            f"shard index out of range in {text!r}: valid shards are "
            f"0/{count} through {count - 1}/{count}"
        )
    return index, count


def shard_points(
    points: list[CampaignPoint], index: int, count: int
) -> list[CampaignPoint]:
    """The shard's slice: global point ``g`` belongs to shard ``g % count``.

    Round-robin keeps every shard's mix of cheap and expensive points
    similar (size ladders put the expensive points at the tail of each
    sweep), so parallel CI shards finish together.
    """
    if count < 1 or not 0 <= index < count:
        raise ExperimentError(f"invalid shard {index}/{count}")
    return [p for g, p in enumerate(points) if g % count == index]


@dataclass
class CampaignRun:
    """Outcome of one :func:`run_campaign` invocation (one shard's view).

    Attributes:
        campaign: The campaign that ran.
        shard: ``(index, count)`` this invocation covered.
        points: The shard's points, in order.
        results: One result per completed shard point (aligned with
            ``points`` only when the run is complete — see ``complete``).
        facts: Each result's topology facts (aligned with ``results``):
            the worker's for a point that ran, the store entry's for a
            cached one (``None`` for an entry written without facts).
        ran: Store keys actually executed (completed) this invocation;
            a point that several sweeps share runs once.
        cached: Points served from the store.
        corrupt: Store entries that failed verification and were re-run.
        failed: Points whose retries were exhausted, with the last error
            (every copy of a shared point).
        exhausted: ``"wall_budget"``/``"point_budget"`` when a budget
            stopped the run early, else ``None``.
        health: Supervisor health (counters and anomaly log).
    """

    campaign: CampaignSpec
    shard: tuple[int, int]
    points: list[CampaignPoint]
    results: list[ExperimentResult]
    facts: list[Facts | None]
    ran: int = 0
    cached: int = 0
    corrupt: int = 0
    failed: list[tuple[CampaignPoint, str]] = field(default_factory=list)
    exhausted: str | None = None
    health: FabricHealth = field(default_factory=FabricHealth)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def complete(self) -> bool:
        """True when every shard point has a result."""
        return len(self.results) == self.total

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this shard's points served from the store."""
        return self.cached / self.total if self.total else 1.0

    def describe(self) -> str:
        """One status line (the CI smoke job greps this)."""
        shard = (
            f"shard {self.shard[0]}/{self.shard[1]}, "
            if self.shard[1] > 1
            else ""
        )
        line = (
            f"campaign {self.campaign.name}: {self.total} points "
            f"({shard}ran {self.ran}, cached {self.cached}, "
            f"cache hit {self.cache_hit_rate * 100:.1f}%)"
        )
        if self.corrupt:
            line += f"; {self.corrupt} corrupt entries re-run"
        if self.failed:
            line += f"; {len(self.failed)} points failed (retries exhausted)"
        if self.exhausted:
            open_points = self.total - len(self.results) - len(self.failed)
            line += f"; {self.exhausted} exhausted with {open_points} points open"
        if self.health.anomalies():
            line += f"; fabric: {self.health.describe()}"
        return line


def run_campaign(
    campaign: CampaignSpec,
    store: ResultStore | None,
    shard: tuple[int, int] = (0, 1),
    fabric: FabricConfig | None = None,
) -> CampaignRun:
    """Run (the shard of) a campaign under the supervised fabric.

    Args:
        campaign: What to run.  Its ``chaos`` directives (if any) are
            injected by the fabric.
        store: Checkpoint store; ``None`` disables caching entirely (every
            point runs, nothing is written — benchmark/test mode).
        shard: ``(index, count)`` — this invocation runs only the points
            of its shard, enabling one campaign to span CI jobs/machines
            over a shared (or later-merged) store.
        fabric: Supervision policy (worker count, timeouts, retries,
            backoff, budgets).  Defaults to ``FabricConfig()`` (one
            worker, no timeout).

    Returns:
        The :class:`CampaignRun` for this shard.
    """
    points = shard_points(expand_points(campaign), *shard)
    if store is not None:
        store.sweep_stale_tmp()
    # Journals only exist in a store; without one there is nowhere to
    # persist streams, so journal directives degrade to plain sweeps.
    journal_sweeps = (
        {d.name for d in campaign.sweeps if d.journal}
        if store is not None
        else set()
    )
    options_by_sweep = {
        d.name: d.options for d in campaign.sweeps if d.options is not None
    }
    entries: list[tuple[ExperimentResult, Facts | None] | None] = [None] * len(points)
    misses: list[int] = []
    corrupt_before = store.stats.corrupt if store is not None else 0
    for position, point in enumerate(points):
        cached = store.get(point.spec) if store is not None else None
        if cached is not None and (
            point.sweep not in journal_sweeps or store.has_journal(point.spec)
        ):
            entries[position] = cached
        else:
            # A summary hit without its journal still re-runs: the
            # journal directive promises the stream is on disk.
            misses.append(position)
    # One job per store key: sweeps may share a point (figure1_greyzone
    # reuses figure2_lowerbound's adversary points), and one run fills
    # every copy.  The job runs as its first journaling copy when there
    # is one, so it is journaled if any copy's sweep journals.
    by_key: dict[str, list[int]] = {}
    for position in misses:
        by_key.setdefault(spec_key(points[position].spec), []).append(position)
    copies: dict[int, list[int]] = {}
    for group in by_key.values():
        journaled = [p for p in group if points[p].sweep in journal_sweeps]
        copies[(journaled or group)[0]] = group
    jobs = [
        FabricJob(
            position=lead,
            label=f"{points[lead].sweep}[{points[lead].index}]",
            spec=points[lead].spec,
            journaled=points[lead].sweep in journal_sweeps,
            options=options_by_sweep.get(points[lead].sweep),
            record_facts=True,
        )
        for lead in copies
    ]
    outcome = run_supervised(jobs, store, fabric, chaos=campaign.chaos)
    for lead, result in outcome.results.items():
        for position in copies[lead]:
            entries[position] = (result, outcome.facts[lead])
    done = [entry for entry in entries if entry is not None]
    return CampaignRun(
        campaign=campaign,
        shard=shard,
        points=points,
        results=[result for result, _ in done],
        facts=[facts for _, facts in done],
        ran=len(outcome.results),
        cached=len(points) - len(misses),
        corrupt=(store.stats.corrupt - corrupt_before) if store is not None else 0,
        failed=[
            (points[position], error)
            for position, error in sorted(
                (position, error)
                for lead, error in outcome.failed.items()
                for position in copies[lead]
            )
        ],
        exhausted=outcome.exhausted,
        health=outcome.health,
    )


def collect_results(
    campaign: CampaignSpec, store: ResultStore
) -> tuple[PointsBySweep, list[CampaignPoint]]:
    """Read every campaign point back from the store.

    Returns:
        ``(points_by_sweep, missing)`` — the check-ready mapping over the
        points present (each carrying its entry's facts), plus the points
        with no valid store entry (from shards that have not run, or
        entries that failed verification).

    A journaled sweep's point also counts as missing when its summary is
    present but its journal is not — the journal directive promised the
    stream.  The journal probe is a backend ``head`` (a HEAD request
    against an HTTP store), so completeness verification never downloads
    journal bytes.
    """
    journal_sweeps = {d.name for d in campaign.sweeps if d.journal}
    points_by_sweep: PointsBySweep = {
        directive.name: [] for directive in campaign.sweeps
    }
    missing: list[CampaignPoint] = []
    for point in expand_points(campaign):
        entry = store.get(point.spec)
        if entry is None or (
            point.sweep in journal_sweeps and not store.has_journal(point.spec)
        ):
            missing.append(point)
        else:
            points_by_sweep[point.sweep].append(
                Point(point.sweep, point.index, point.spec, *entry)
            )
    return points_by_sweep, missing


def results_by_sweep(run: CampaignRun) -> PointsBySweep:
    """A :func:`run_campaign` outcome as the check-ready mapping.

    Only meaningful for full-coverage runs (``shard == (0, 1)``); sharded
    runs verify via :func:`collect_results` over the merged store, and so
    do partial runs (budget-exhausted or failed points), whose ``results``
    list no longer aligns with ``points``.
    """
    if not run.complete:
        raise ExperimentError(
            f"campaign run is incomplete ({len(run.results)} of "
            f"{run.total} points); read the store via collect_results()"
        )
    points_by_sweep: PointsBySweep = {
        directive.name: [] for directive in run.campaign.sweeps
    }
    for point, result, facts in zip(run.points, run.results, run.facts):
        points_by_sweep[point.sweep].append(
            Point(point.sweep, point.index, point.spec, result, facts)
        )
    return points_by_sweep


@dataclass(frozen=True)
class CheckOutcome:
    """One check directive's verdict."""

    kind: str
    sweeps: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def evaluate_checks(
    campaign: CampaignSpec, points_by_sweep: PointsBySweep
) -> list[CheckOutcome]:
    """Apply every check directive to its in-scope sweeps."""
    outcomes = []
    for check in campaign.checks:
        scope = {
            name: points
            for name, points in points_by_sweep.items()
            if check.matches(name)
        }
        check_fn = CHECKS.get(check.kind)
        try:
            failures = tuple(check_fn(scope, **check.params))
        except TypeError as exc:
            raise ExperimentError(
                f"check {check.kind!r} rejected params "
                f"{sorted(check.params)}: {exc}"
            ) from exc
        outcomes.append(CheckOutcome(check.kind, check.sweeps, failures))
    return outcomes


def evaluate_trace_checks(
    campaign: CampaignSpec, store: ResultStore
) -> list[CheckOutcome]:
    """Apply every trace-check directive to its journaled points.

    Points are visited in campaign order, and each point of a journaling
    sweep that some directive scopes has its observation journal read
    from the store and decoded exactly once; every in-scope directive
    then runs against that one decoded journal, and only one journal is
    held in memory at a time.  A point without a readable journal is a
    failure under every directive that scopes it — the journal directive
    promised the stream, so silence must not pass.  Each directive's
    failures are listed in point order, and outcome kinds are prefixed
    ``trace:`` to keep the two check families apart in reports.
    """
    checks = campaign.trace_checks
    journal_sweeps = {d.name for d in campaign.sweeps if d.journal}
    failures: list[list[str]] = [[] for _ in checks]
    for point in expand_points(campaign):
        if point.sweep not in journal_sweeps:
            continue
        scoped = [i for i, check in enumerate(checks) if check.matches(point.sweep)]
        if not scoped:
            continue
        label = f"{point.sweep}[{point.index}] {point.spec.name!r}"
        journal = store.get_journal(point.spec)
        for i in scoped:
            if journal is None:
                failures[i].append(f"{label}: no readable journal in store")
                continue
            failures[i].extend(
                f"{label}: {failure}"
                for failure in run_trace_check(
                    checks[i].kind,
                    point.spec,
                    journal.observations,
                    **checks[i].params,
                )
            )
        del journal  # free this point's stream before decoding the next
    return [
        CheckOutcome(f"trace:{check.kind}", check.sweeps, tuple(found))
        for check, found in zip(checks, failures)
    ]


@dataclass
class VerifyReport:
    """Completeness + validation verdict for a campaign's store.

    ``points_by_sweep`` carries the results read during verification so
    callers (the CLI's report step) need not scan the store again.
    """

    campaign: CampaignSpec
    total: int
    present: int
    checks: list[CheckOutcome] = field(default_factory=list)
    missing: list[CampaignPoint] = field(default_factory=list)
    points_by_sweep: PointsBySweep = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def ok(self) -> bool:
        return self.complete and all(outcome.ok for outcome in self.checks)


def verify_campaign(campaign: CampaignSpec, store: ResultStore) -> VerifyReport:
    """Verify a campaign against its store without running anything.

    Checks are only evaluated over a complete result set — validating a
    partial campaign would let a missing shard masquerade as a pass.
    """
    points_by_sweep, missing = collect_results(campaign, store)
    present = sum(len(points) for points in points_by_sweep.values())
    report = VerifyReport(
        campaign=campaign,
        total=present + len(missing),
        present=present,
        missing=missing,
        points_by_sweep=points_by_sweep,
    )
    if report.complete:
        report.checks = evaluate_checks(campaign, points_by_sweep)
        report.checks += evaluate_trace_checks(campaign, store)
    return report
