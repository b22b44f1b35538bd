"""Store maintenance tools: sync, verify, gc (``repro store ...``).

These operate on any :class:`~repro.store.backend.StoreBackend`, so the
same command moves entries between two directories, a directory and a
server, or two servers.  Verification re-checks the *document* layer
(format, embedded checksum, spec round-trip) — the layer the campaign
executor trusts — not just transport digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.store.backend import StoreBackend


@dataclass
class SyncReport:
    """What :func:`sync_stores` did, per entry disposition."""

    copied: int = 0
    overwritten: int = 0
    skipped: int = 0

    def describe(self) -> str:
        return (
            f"copied {self.copied}, overwrote {self.overwritten}, "
            f"skipped {self.skipped} identical"
        )


def sync_stores(source: StoreBackend, destination: StoreBackend) -> SyncReport:
    """One-way sync: make ``destination`` cover ``source``.

    Entries missing from the destination are copied; entries present
    with different bytes are overwritten (the source is authoritative);
    byte-identical entries are skipped.  Extra destination entries are
    left alone — use :func:`gc_store` to prune.
    """
    report = SyncReport()
    for kind, key in source.list_entries():
        data = source.get(kind, key)
        if data is None:
            continue
        existing = destination.get(kind, key) if destination.head(kind, key) else None
        if existing == data:
            report.skipped += 1
            continue
        destination.put(kind, key, data)
        if existing is None:
            report.copied += 1
        else:
            report.overwritten += 1
    return report


@dataclass
class VerifyEntryProblem:
    """One entry that failed document-level verification."""

    kind: str
    key: str
    reason: str


@dataclass
class StoreVerifyReport:
    """What :func:`verify_store` found."""

    checked: int = 0
    ok: int = 0
    problems: list[VerifyEntryProblem] = field(default_factory=list)
    deleted: int = 0

    def describe(self) -> str:
        text = f"checked {self.checked}, ok {self.ok}, bad {len(self.problems)}"
        if self.deleted:
            text += f", deleted {self.deleted}"
        return text


def _check_summary(data: bytes, key: str) -> str | None:
    """Why a summary entry is invalid, or ``None`` when it verifies."""
    from repro.campaigns.store import decode_summary, spec_key

    result = decode_summary(data, key)
    if isinstance(result, str):
        return result
    if spec_key(result.spec) != key:
        return "spec does not hash to entry key"
    return None


def _check_journal(raw: bytes, key: str) -> str | None:
    """Why a journal blob is invalid, or ``None`` when it verifies."""
    from repro.errors import ExperimentError
    from repro.runtime.journal import loads_journal, unframe_journal

    where = f"journal {key[:12]}…"
    try:
        journal = loads_journal(unframe_journal(raw, where), where=where)
    except ExperimentError as exc:
        return f"journal does not decode: {exc}"
    if journal.meta.get("spec_key") != key:
        return "journal spec_key does not match entry key"
    return None


def verify_store(
    backend: StoreBackend,
    delete: bool = False,
) -> StoreVerifyReport:
    """Document-level verification of every entry in ``backend``.

    With ``delete=True``, invalid entries are removed — the next
    campaign run treats them as misses and re-runs the points, healing
    the store.
    """
    report = StoreVerifyReport()
    for kind, key in backend.list_entries():
        report.checked += 1
        data = backend.get(kind, key)
        if data is None:
            reason: str | None = "listed but unreadable"
        elif kind == "summary":
            reason = _check_summary(data, key)
        else:
            reason = _check_journal(data, key)
        if reason is None:
            report.ok += 1
            continue
        report.problems.append(VerifyEntryProblem(kind=kind, key=key, reason=reason))
        if delete:
            backend.delete(kind, key)
            report.deleted += 1
    return report


@dataclass
class GcReport:
    """What :func:`gc_store` removed (or would remove)."""

    kept: int = 0
    removed: int = 0
    dry_run: bool = True

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return f"kept {self.kept}, {verb} {self.removed}"


def gc_store(
    backend: StoreBackend,
    keep_keys: set[str],
    dry_run: bool = True,
) -> GcReport:
    """Prune entries whose key is not in ``keep_keys``.

    Content addressing makes this safe: a key outside the keep set
    belongs to no point of the campaigns that produced the set, so
    removing it can only cost a re-run, never correctness.
    """
    report = GcReport(dry_run=dry_run)
    for kind, key in list(backend.list_entries()):
        if key in keep_keys:
            report.kept += 1
            continue
        report.removed += 1
        if not dry_run:
            backend.delete(kind, key)
    return report


def entry_digest(data: bytes) -> str:
    """SHA-256 of raw entry bytes (the transport/diff digest)."""
    return hashlib.sha256(data).hexdigest()
