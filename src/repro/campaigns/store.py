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
* **Self-describing for checks** — the fabric writes each point's
  topology facts (``{"diameter"}``) beside its result, so bound
  checks need not rebuild the network.  Facts are optional: an entry
  without them (written before they existed, or by :meth:`ResultStore.put`
  without ``facts``) is still valid at the same ``STORE_FORMAT``.

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
from repro.experiments.substrates import Facts
from repro.runtime.journal import Journal, dump_journal, loads_journal, unframe_journal
from repro.runtime.observations import Observation
from repro.store.backend import StoreBackend, StoreIntegrityError, open_backend

#: Bumped when the entry layout changes; older entries read as misses.
#: 2: result payloads carry the ``series`` dict (per-window curves).
STORE_FORMAT = 2


def spec_key(spec: ExperimentSpec) -> str:
    """The store key of a spec: SHA-256 over its canonical JSON."""
    return hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()


def encode_journal(
    spec: ExperimentSpec, observations: tuple[Observation, ...]
) -> bytes:
    """The journal bytes a store keeps for ``spec``'s observation stream.

    The header meta is ``{"spec", "spec_key"}``, which
    :meth:`ResultStore.get_journal` checks against the entry key.  The
    bytes depend only on the spec and its deterministic stream
    (``profile`` records are excluded by the journal writer), so shards,
    machines and fabric workers produce byte-identical files.
    """
    return dump_journal(
        observations,
        meta={"spec": spec.to_dict(), "spec_key": spec_key(spec)},
    )


def _payload_digest(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: The keys a stored ``facts`` object holds, no more and no fewer.
FACT_KEYS = ("diameter",)


def _facts_problem(facts: Any) -> str | None:
    """Why a stored ``facts`` value is malformed, or ``None`` when valid."""
    if not isinstance(facts, dict):
        return f"facts is {type(facts).__name__}, not an object"
    if tuple(sorted(facts)) != FACT_KEYS:
        return f"facts keys {sorted(map(str, facts))} != {list(FACT_KEYS)}"
    for name in FACT_KEYS:
        value = facts[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            return f"facts.{name} is {value!r}, not a non-negative int"
    return None


def decode_summary(
    data: bytes, key: str
) -> tuple[ExperimentResult, Facts | None] | str:
    """The ``(result, facts)`` a summary entry's bytes hold, or why they
    are invalid.

    The document checks every reader trusts — JSON object, format
    version, embedded checksum, payload key, a ``result`` that rebuilds
    with a spec that hashes to the entry key, and ``facts`` that are
    absent (entries written before facts existed, or by a writer with
    none to give) or well formed — in one place:
    :meth:`ResultStore.get` and ``repro store verify`` both call it.  A
    checksum only proves the bytes are the ones written, not that their
    shape is right, so any failure to rebuild is returned as a reason,
    never raised.
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
    facts = payload.get("facts")
    if "facts" in payload:
        problem = _facts_problem(facts)
        if problem is not None:
            return problem
    try:
        result = ExperimentResult.from_dict(payload["result"])
    except (
        ReproError,
        AttributeError,
        KeyError,
        OverflowError,
        TypeError,
        ValueError,
    ) as exc:
        return f"result does not decode: {type(exc).__name__}: {exc}"
    try:
        hashed = spec_key(result.spec)
    except (RecursionError, TypeError, ValueError) as exc:
        # A rebuilt spec can still hold params JSON cannot sort or encode.
        return f"spec does not encode: {type(exc).__name__}: {exc}"
    if hashed != key:
        # E.g. a param stored as ``true`` where the key hashed ``1``: the
        # specs compare equal in Python, but the entry is not this key's.
        return "spec does not hash to entry key"
    return result, facts


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
    def get(
        self, spec: ExperimentSpec
    ) -> tuple[ExperimentResult, Facts | None] | None:
        """The stored ``(result, facts)`` for ``spec``, or ``None``
        (miss/corrupt); ``facts`` is ``None`` for an entry written
        without them.

        A present-but-invalid entry — any reason :func:`decode_summary`
        gives (a stored spec that does not hash to the entry key among
        them) or an HTTP transport-level checksum mismatch — counts as
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
        entry = decode_summary(data, key)
        if isinstance(entry, str):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return entry

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def encode(
        self, result: ExperimentResult, facts: Facts | None = None
    ) -> tuple[str, bytes]:
        """The ``(key, entry bytes)`` a result checkpoints as.

        The encoding is the byte-identity contract: every backend stores
        exactly these bytes, so stores written through different
        backends (or merged across machines) stay byte-for-byte equal.
        ``facts`` (see :func:`~repro.experiments.substrates.topology_facts`)
        ride in the payload beside the result, checksummed with it; with
        ``facts=None`` the payload has no ``facts`` key at all.
        """
        key = spec_key(result.spec)
        payload: dict[str, Any] = {
            "key": key,
            "result": result.to_dict(),
        }
        if facts is not None:
            payload["facts"] = facts
        document = {
            "format": STORE_FORMAT,
            "sha256": _payload_digest(payload),
            "payload": payload,
        }
        text = json.dumps(document, sort_keys=True, indent=1) + "\n"
        return key, text.encode("utf-8")

    def put(self, result: ExperimentResult, facts: Facts | None = None) -> str:
        """Checkpoint ``result`` (and its ``facts``) atomically; returns
        the entry location.

        The summary is stored without ``wall_time`` (see module
        docstring) so entry bytes depend only on the spec and its
        deterministic outcome.
        """
        key, data = self.encode(result, facts)
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

        Encodes with :func:`encode_journal`, then writes as
        :meth:`put_journal_bytes` does.
        """
        return self.put_journal_bytes(
            spec_key(spec), encode_journal(spec, observations)
        )

    def put_journal_bytes(self, key: str, data: bytes) -> str:
        """Persist journal bytes already encoded by :func:`encode_journal`
        (a fabric worker encodes its point's journal; the supervisor only
        writes it); returns the entry location.
        """
        location = self.backend.put("journal", key, data)
        self.stats.writes += 1
        return location
