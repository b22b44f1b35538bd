"""Content-addressed result store: checksummed, atomic, backend-pluggable.

Every completed experiment point is checkpointed as one JSON document
keyed by the SHA-256 of its spec's canonical JSON (the spec embeds the
seed, so the key covers it).  Properties the campaign executor relies on:

* **Resumable** — a hit returns the stored summary without re-running;
  an interrupted campaign recomputes only the missing keys.
* **Atomic** — backends write entries so a crash mid-write never leaves
  a half-entry under the final name (the local backend uses temp file +
  ``os.replace``; the HTTP server does the same on its own disk).
* **Self-verifying** — each entry embeds a SHA-256 over its canonical
  payload; a truncated, corrupted, or hand-edited entry fails
  verification and is treated as a miss (re-run), never trusted.  The
  HTTP backend additionally verifies a transport digest on every read.
* **Portable** — entries store only the observable outcome (``wall_time``
  is zeroed), so stores merged from different machines or CI shards are
  byte-identical to a single-machine run.

This module owns the *document* layer — encoding, checksums, spec
round-trips.  *Where the bytes live* is a
:class:`~repro.store.backend.StoreBackend`: a local directory (the
historical layout, unchanged) or an ``http(s)://`` store served by
``repro store serve``.  ``ResultStore("artifacts/store")`` and
``ResultStore("http://host:8750")`` behave identically to callers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExperimentError, ReproError
from repro.experiments.runner import ExperimentResult
from repro.experiments.specs import ExperimentSpec
from repro.runtime.journal import Journal, dump_journal, loads_journal, unframe_journal
from repro.runtime.observations import Observation
from repro.store.backend import StoreBackend, StoreIntegrityError, open_backend

#: Bumped when the entry layout changes; older entries read as misses.
#: 2: result payloads carry the ``series`` dict (per-window curves).
STORE_FORMAT = 2


def spec_key(spec: ExperimentSpec) -> str:
    """The store key of a spec: SHA-256 over its canonical JSON."""
    return hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()


def _payload_digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def decode_summary(data: bytes, key: str) -> ExperimentResult | str:
    """The result a summary entry's bytes hold, or why they are invalid.

    The document checks every reader trusts — JSON object, format
    version, embedded checksum, payload key, and a ``result`` that
    rebuilds — in one place: :meth:`ResultStore.get` and ``repro store
    verify`` both call it.  A checksum only proves the bytes are the ones
    written, not that their shape is right, so any failure to rebuild
    the result is returned as a reason, never raised.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return f"not JSON: {exc}"
    if not isinstance(document, dict):
        return "not a JSON object"
    if document.get("format") != STORE_FORMAT:
        return f"format {document.get('format')!r} != {STORE_FORMAT}"
    payload = document.get("payload")
    if not isinstance(payload, dict):
        return "missing payload"
    if document.get("sha256") != _payload_digest(payload):
        return "payload checksum mismatch"
    if payload.get("key") != key:
        return f"payload key {str(payload.get('key'))[:12]}… != entry key"
    try:
        return ExperimentResult.from_dict(payload["result"])
    except (
        ReproError,
        AttributeError,
        KeyError,
        OverflowError,
        TypeError,
        ValueError,
    ) as exc:
        return f"result does not decode: {type(exc).__name__}: {exc}"


@dataclass
class StoreStats:
    """Counters for one store session (hits/misses/corruption)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }


@dataclass
class ResultStore:
    """A store of checkpointed experiment results.

    Args:
        root: Store location — a directory path (created lazily on first
            write), an ``http(s)://`` store URL, or an already-open
            :class:`~repro.store.backend.StoreBackend`.
    """

    root: str
    stats: StoreStats = field(default_factory=StoreStats)
    backend: StoreBackend = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.root, str):
            self.backend = open_backend(self.root)
        else:
            self.backend = self.root
            self.root = self.backend.describe()

    def path_for(self, key: str) -> str:
        """Where the summary entry for ``key`` lives (path or URL)."""
        return self.backend.location("summary", key)

    def journal_path_for(self, key: str) -> str:
        """Where the observation journal for ``key`` lives."""
        return self.backend.location("journal", key)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> ExperimentResult | None:
        """The stored summary for ``spec``, or ``None`` (miss/corrupt).

        A present-but-invalid entry — any reason :func:`decode_summary`
        gives, an HTTP transport-level checksum mismatch, or a stored
        spec that does not round-trip to the requested one — counts as
        corrupt *and* as a miss: the caller re-runs the point and the
        rewrite heals the store.  An *unreachable* backend raises
        instead — silence there would silently re-run an entire cached
        campaign.
        """
        key = spec_key(spec)
        try:
            data = self.backend.get("summary", key)
        except StoreIntegrityError:
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        if data is None:
            self.stats.misses += 1
            return None
        result = decode_summary(data, key)
        if isinstance(result, str) or result.spec != spec:
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return result

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def encode(self, result: ExperimentResult) -> tuple[str, bytes]:
        """The ``(key, entry bytes)`` a result checkpoints as.

        The encoding is the byte-identity contract: every backend stores
        exactly these bytes, so stores written through different
        backends (or merged across machines) stay byte-for-byte equal.
        """
        key = spec_key(result.spec)
        payload = {
            "key": key,
            "result": result.to_dict(),
        }
        document = {
            "format": STORE_FORMAT,
            "sha256": _payload_digest(payload),
            "payload": payload,
        }
        text = json.dumps(document, sort_keys=True, indent=1) + "\n"
        return key, text.encode("utf-8")

    def put(self, result: ExperimentResult) -> str:
        """Checkpoint ``result`` atomically; returns the entry location.

        The summary is stored without ``wall_time`` (see module
        docstring) so entry bytes depend only on the spec and its
        deterministic outcome.
        """
        key, data = self.encode(result)
        location = self.backend.put("summary", key, data)
        self.stats.writes += 1
        return location

    def sweep_stale_tmp(self, max_age_seconds: float = 3600.0) -> int:
        """Remove orphaned atomic-write temp files; returns the count."""
        return self.backend.sweep_stale_tmp(max_age_seconds)

    # ------------------------------------------------------------------
    # Observation journals (sweeps with ``journal=True``)
    # ------------------------------------------------------------------
    def has_journal(self, spec: ExperimentSpec) -> bool:
        """Whether a journal entry exists for ``spec`` (no download).

        Goes through the backend's ``head`` — against an HTTP store this
        is a HEAD request, so probing a journaled campaign's cache state
        never transfers journal bytes.
        """
        return self.backend.head("journal", spec_key(spec))

    def get_journal(self, spec: ExperimentSpec) -> Journal | None:
        """The stored journal for ``spec``, or ``None`` (miss/corrupt).

        Same contract as :meth:`get`: an unreadable or malformed journal
        counts as corrupt and as a miss, so the caller re-runs the point
        and the rewrite heals the store.
        """
        key = spec_key(spec)
        try:
            raw = self.backend.get("journal", key)
        except StoreIntegrityError:
            self.stats.corrupt += 1
            return None
        if raw is None:
            return None
        where = self.journal_path_for(key)
        try:
            journal = loads_journal(unframe_journal(raw, where), where=where)
        except ExperimentError:
            self.stats.corrupt += 1
            return None
        if journal.meta.get("spec_key") != key:
            self.stats.corrupt += 1
            return None
        return journal

    def put_journal(
        self,
        spec: ExperimentSpec,
        observations: tuple[Observation, ...],
    ) -> str:
        """Persist a point's observation journal atomically.

        The journal's bytes depend only on the spec and its deterministic
        stream (``profile`` records are excluded by the journal writer),
        so shards and machines produce byte-identical files.
        """
        key = spec_key(spec)
        data = dump_journal(
            observations,
            meta={"spec": spec.to_dict(), "spec_key": key},
        )
        location = self.backend.put("journal", key, data)
        self.stats.writes += 1
        return location
