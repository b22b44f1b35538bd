"""``repro campaign diff``: point-by-point cross-store comparison.

Compares what two stores hold for the *same* campaign — typically a
fresh run against a golden store, a chaos run against a fault-free one,
or two code revisions against each other.  Content addressing makes the
comparison exact: every expanded point has one spec key, and the
byte-identity contract says both stores must hold the same bytes under
it.  Each point lands in exactly one bucket:

``identical``
    Both stores hold the entry and the bytes match (journals too, for
    journaled sweeps) — or the only difference is that one side has no
    recorded topology facts (an entry written before facts existed):
    the payloads are equal once ``facts`` is removed.  Journals whose
    bytes differ are also identical when their decompressed header and
    stream lines match: the same journal compressed at another gzip
    level (one written before the level moved from 9 to 6).
``metric_delta``
    Both entries decode but their observable outcomes (or, when both
    sides record them, their topology facts) differ — the interesting
    bucket for cross-revision drift; per-field deltas are reported.
``journal_delta``
    Summaries are byte-identical but the journals' header or stream
    differ (or one side's journal is absent or does not decompress).
``missing_a`` / ``missing_b`` / ``missing_both``
    One or both stores have no entry for the point.
``undecodable``
    Bytes differ and at least one side fails document verification
    (corrupt entry — ``repro store verify`` pinpoints it).

Any bucket other than ``identical`` counts as drift; the CLI exits
nonzero on drift so the comparison can gate automation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.campaigns.executor import expand_points
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import FACT_KEYS, ResultStore, spec_key
from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentResult
from repro.runtime.journal import unframe_journal

#: Buckets in report order; every bucket after ``identical`` is drift.
DIFF_STATUSES = (
    "identical",
    "metric_delta",
    "journal_delta",
    "missing_a",
    "missing_b",
    "missing_both",
    "undecodable",
)


@dataclass(frozen=True)
class PointDiff:
    """One expanded point's comparison verdict."""

    sweep: str
    index: int
    key: str
    status: str
    detail: str = ""

    def describe(self) -> str:
        line = f"{self.sweep}[{self.index}] {self.key[:12]}…: {self.status}"
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class DiffReport:
    """What :func:`diff_campaign` found across every expanded point."""

    campaign: CampaignSpec
    store_a: str
    store_b: str
    points: list[PointDiff] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        tally = {status: 0 for status in DIFF_STATUSES}
        for point in self.points:
            tally[point.status] += 1
        return tally

    @property
    def drifted(self) -> list[PointDiff]:
        return [p for p in self.points if p.status != "identical"]

    @property
    def ok(self) -> bool:
        """True when every point is byte-identical in both stores."""
        return not self.drifted

    def describe(self) -> str:
        counts = self.counts
        parts = [f"{counts['identical']}/{len(self.points)} identical"]
        parts += [
            f"{counts[status]} {status}"
            for status in DIFF_STATUSES[1:]
            if counts[status]
        ]
        verdict = "zero drift" if self.ok else "DRIFT"
        return (
            f"campaign {self.campaign.name} diff "
            f"[{self.store_a}] vs [{self.store_b}]: "
            f"{', '.join(parts)} — {verdict}"
        )


def _scalar_delta(name: str, a: float, b: float) -> str | None:
    """A human line for one differing scalar, or ``None`` when equal."""
    if a == b or (
        isinstance(a, float)
        and isinstance(b, float)
        and math.isnan(a)
        and math.isnan(b)
    ):
        return None
    return f"{name}: {a!r} -> {b!r}"


def _result_deltas(a: ExperimentResult, b: ExperimentResult) -> list[str]:
    """Which observable fields differ between two decoded results."""
    deltas = []
    for name in ("solved", "completion_time", "broadcast_count", "delivered_count"):
        line = _scalar_delta(name, getattr(a, name), getattr(b, name))
        if line is not None:
            deltas.append(line)
    metric_names = sorted(set(a.metrics) | set(b.metrics))
    for name in metric_names:
        if name not in a.metrics:
            deltas.append(f"metrics.{name}: absent -> {b.metrics[name]!r}")
        elif name not in b.metrics:
            deltas.append(f"metrics.{name}: {a.metrics[name]!r} -> absent")
        else:
            line = _scalar_delta(
                f"metrics.{name}", a.metrics[name], b.metrics[name]
            )
            if line is not None:
                deltas.append(line)
    series_names = sorted(set(a.series) | set(b.series))
    for name in series_names:
        if a.series.get(name) != b.series.get(name):
            deltas.append(f"series.{name} differs")
    return deltas


def diff_campaign(
    campaign: CampaignSpec,
    store_a: ResultStore,
    store_b: ResultStore,
) -> DiffReport:
    """Compare what two stores hold for every point of ``campaign``."""
    journal_sweeps = {d.name for d in campaign.sweeps if d.journal}
    report = DiffReport(
        campaign=campaign,
        store_a=store_a.backend.describe(),
        store_b=store_b.backend.describe(),
    )
    for point in expand_points(campaign):
        key = spec_key(point.spec)
        raw_a = store_a.backend.get("summary", key)
        raw_b = store_b.backend.get("summary", key)
        status, detail = _diff_summaries(store_a, store_b, point.spec, raw_a, raw_b)
        if status == "identical" and point.sweep in journal_sweeps:
            status, detail = _diff_journals(store_a, store_b, key)
        report.points.append(
            PointDiff(
                sweep=point.sweep,
                index=point.index,
                key=key,
                status=status,
                detail=detail,
            )
        )
    return report


def _diff_summaries(
    store_a: ResultStore,
    store_b: ResultStore,
    spec,
    raw_a: bytes | None,
    raw_b: bytes | None,
) -> tuple[str, str]:
    if raw_a is None and raw_b is None:
        return "missing_both", ""
    if raw_a is None:
        return "missing_a", ""
    if raw_b is None:
        return "missing_b", ""
    if raw_a == raw_b:
        return "identical", ""
    entry_a = store_a.get(spec)
    entry_b = store_b.get(spec)
    if entry_a is None or entry_b is None:
        sides = []
        if entry_a is None:
            sides.append("A")
        if entry_b is None:
            sides.append("B")
        return "undecodable", f"corrupt entry in store {'/'.join(sides)}"
    (result_a, facts_a), (result_b, facts_b) = entry_a, entry_b
    if (facts_a is None) != (facts_b is None):
        # One side may have been written before entries recorded facts;
        # it is the same entry when the rest of the payloads is equal.
        if _payload_without_facts(raw_a) == _payload_without_facts(raw_b):
            return "identical", ""
    deltas = _result_deltas(result_a, result_b)
    if facts_a is not None and facts_b is not None:
        for name in FACT_KEYS:
            line = _scalar_delta(f"facts.{name}", facts_a[name], facts_b[name])
            if line is not None:
                deltas.append(line)
    if not deltas:
        deltas.append("results decode equal but entry bytes differ")
    return "metric_delta", "; ".join(deltas)


def _payload_without_facts(raw: bytes) -> str:
    """The canonical payload of a decodable entry, ``facts`` removed."""
    payload = json.loads(raw.decode("utf-8"))["payload"]
    payload.pop("facts", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _diff_journals(
    store_a: ResultStore, store_b: ResultStore, key: str
) -> tuple[str, str]:
    journal_a = store_a.backend.get("journal", key)
    journal_b = store_b.backend.get("journal", key)
    if journal_a == journal_b:
        return "identical", ""
    sides = []
    if journal_a is None:
        sides.append("absent in A")
    if journal_b is None:
        sides.append("absent in B")
    if sides:
        return "journal_delta", "; ".join(sides)
    try:
        text_a = unframe_journal(journal_a, store_a.journal_path_for(key))
        text_b = unframe_journal(journal_b, store_b.journal_path_for(key))
    except ExperimentError as exc:
        return "journal_delta", str(exc)
    if text_a == text_b:
        return "identical", ""
    return "journal_delta", "journal header or stream differs"
