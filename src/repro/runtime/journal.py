"""Persistent observation journals: deterministic gzip-framed JSONL.

An :class:`~repro.runtime.observations.Observation` stream normally dies
with the process; a *journal* is its durable form, compact enough to sit
next to every campaign point in the content-addressed store and strict
enough that two shards (or two machines) journaling the same spec+seed
produce **byte-identical** files.

Format (version :data:`JOURNAL_FORMAT`):

* the payload is UTF-8 JSON lines, gzip-framed with ``mtime=0`` and a
  pinned compression level so the bytes carry no timestamp or
  zlib-version drift.  The level is 6, not 9: on campaign journals
  level 9 spends five to six times the compression time for under 2%
  fewer bytes, and decompression costs the same at either level.  The
  level is part of the byte contract but not of the layout, so a
  journal written at another level still loads (same ``JOURNAL_FORMAT``);
* line 1 is a header object ``{"format", "kind", "count", "meta"}``
  serialized with sorted keys — ``meta`` is caller-supplied context
  (the experiment spec dict and its store key, for campaign journals);
* every following line is one observation as a compact 6-element array
  ``[time, kind, node, key, ref, value]`` — the record's named-tuple
  fields in order — with non-finite floats encoded
  as the strings ``"inf"`` / ``"-inf"`` / ``"nan"`` (strict JSON only);
* observations are written in canonical stream order
  (:meth:`Observation.sort_key`), and ``profile`` records are excluded
  by default — wall-clock and heap gauges are machine-dependent and
  would break cross-machine byte identity.

Readers sniff the gzip magic in one place, :func:`unframe_journal`, so a
hand-written plain-text ``.jsonl`` journal (useful for synthesizing
violation fixtures in tests) loads through the same functions, and a
corrupt frame raises :class:`~repro.errors.ExperimentError` like any
other malformed journal.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ExperimentError
from repro.runtime.observations import OBSERVATION_KINDS, Observation

#: Journal schema version; bump on any incompatible layout change.
JOURNAL_FORMAT = 1

#: Header ``kind`` discriminator (guards against feeding arbitrary JSONL).
JOURNAL_KIND = "observation-journal"

_GZIP_MAGIC = b"\x1f\x8b"

# Pinned framing parameters: gzip output is only byte-stable across
# machines when the embedded mtime is fixed and the level is explicit.
_GZIP_MTIME = 0
_GZIP_LEVEL = 6

# One shared compact encoder: ``json.dumps(..., separators=...)`` would
# build a fresh encoder for every row.
_encode_row = json.JSONEncoder(separators=(",", ":")).encode

#: Each kind as the compact encoder writes it, escaped once.
_KIND_JSON = {kind: encode_basestring_ascii(kind) for kind in OBSERVATION_KINDS}


def _encode_float(value: float) -> float | str:
    """Strict-JSON float encoding (mirrors the result-store convention)."""
    if math.isfinite(value):
        return float(value)
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _non_finite_json(value: float) -> str:
    """``_encode_float(value)`` as JSON text, for a non-finite value."""
    if value != value:
        return '"nan"'
    return '"inf"' if value > 0 else '"-inf"'


@dataclass(frozen=True)
class Journal:
    """One loaded journal: header metadata plus the observation stream."""

    format: int
    meta: dict
    observations: tuple[Observation, ...]

    def __len__(self) -> int:
        return len(self.observations)


def _canonical(
    observations: Iterable[Observation], include_profile: bool
) -> list[Observation]:
    """The observations a journal keeps, in canonical stream order.

    ``profile`` observations are filtered out unless ``include_profile``
    — their values (wall time, heap churn) vary across machines and
    would defeat byte-identical journals.
    """
    kept = [
        obs
        for obs in observations
        if include_profile or obs.kind != "profile"
    ]
    kept.sort(key=Observation.sort_key)
    return kept


def _lines(kept: list[Observation], meta: dict | None) -> Iterator[str]:
    header = {
        "format": JOURNAL_FORMAT,
        "kind": JOURNAL_KIND,
        "count": len(kept),
        "meta": meta if meta is not None else {},
    }
    yield json.dumps(header, sort_keys=True, separators=(",", ":"))
    # Each row is the text ``_encode_row`` writes for ``[time, kind,
    # node, key, ref, value]``, built in one f-string from the same
    # primitives the C encoder uses (``float.__repr__``, ``int.__repr__``,
    # ``encode_basestring_ascii``) at half its cost.  A node, key or ref
    # of any other type (a bool node, say) takes the encoder itself.
    kinds = _KIND_JSON
    finite = math.isfinite
    float_repr = float.__repr__
    int_repr = int.__repr__
    quote = encode_basestring_ascii
    for time, kind, node, key, ref, value in kept:
        if node is None:
            node_json = "null"
        elif node.__class__ is int:
            node_json = int_repr(node)
        else:
            node_json = None
        if node_json is None or ref.__class__ is not int or key.__class__ is not str:
            yield _encode_row(
                [
                    _encode_float(time),
                    kind,
                    node,
                    key,
                    ref,
                    _encode_float(value),
                ]
            )
            continue
        time_json = float_repr(float(time)) if finite(time) else _non_finite_json(time)
        value_json = (
            float_repr(float(value)) if finite(value) else _non_finite_json(value)
        )
        yield (
            f"[{time_json},{kinds[kind]},{node_json},{quote(key)},"
            f"{int_repr(ref)},{value_json}]"
        )


def _frame(lines: Iterable[str]) -> bytes:
    """Gzip-frame the lines with the pinned parameters, in one write.

    ``GzipFile`` rather than ``gzip.compress``: the latter writes a
    different OS byte into the gzip header, which would change every
    journal's bytes.
    """
    buffer = io.BytesIO()
    with gzip.GzipFile(
        fileobj=buffer, mode="wb", mtime=_GZIP_MTIME, compresslevel=_GZIP_LEVEL
    ) as frame:
        frame.write(("\n".join(lines) + "\n").encode("utf-8"))
    return buffer.getvalue()


def journal_lines(
    observations: Iterable[Observation],
    meta: dict | None = None,
    include_profile: bool = False,
) -> Iterator[str]:
    """The journal's JSON lines (header first), in canonical order.

    ``profile`` observations are excluded unless ``include_profile``.
    """
    return _lines(_canonical(observations, include_profile), meta)


def dump_journal(
    observations: Iterable[Observation],
    meta: dict | None = None,
    include_profile: bool = False,
) -> bytes:
    """Serialize a stream to deterministic gzip-framed journal bytes."""
    return _frame(journal_lines(observations, meta, include_profile))


def write_journal(
    path: str | Path,
    observations: Iterable[Observation],
    meta: dict | None = None,
    include_profile: bool = False,
) -> int:
    """Write a journal file; returns the observation count written."""
    kept = _canonical(observations, include_profile)
    Path(path).write_bytes(_frame(_lines(kept, meta)))
    return len(kept)


def unframe_journal(raw: bytes, where: str) -> str:
    """Journal text from stored bytes, gzip-framed or plain JSONL.

    A broken gzip frame or non-UTF-8 text raises
    :class:`~repro.errors.ExperimentError` naming ``where``.
    """
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise ExperimentError(f"{where}: corrupt journal frame: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExperimentError(f"{where}: journal is not UTF-8: {exc}") from exc


def _header_int(header: dict, field: str, where: str) -> int:
    try:
        return int(header.get(field, -1))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ExperimentError(
            f"{where}:1: journal header {field} is not an integer: {exc}"
        ) from exc


def _parse_rows(lines: list[str], where: str) -> list:
    """JSON-decode the observation lines (``lines[1:]``) in one parse.

    When the one-shot parse fails — or yields a different row count, so
    some line did not hold exactly one value — the lines are re-parsed
    one at a time, which raises naming the first bad ``where:lineno``.
    """
    body = lines[1:]
    try:
        rows = json.loads("[" + ",".join(body) + "]")
    except (ValueError, RecursionError):
        rows = None
    if rows is not None and len(rows) == len(body):
        return rows
    rows = []
    for lineno, line in enumerate(body, start=2):
        try:
            rows.append(json.loads(line))
        except (ValueError, RecursionError) as exc:
            raise ExperimentError(
                f"{where}:{lineno}: bad journal line: {exc}"
            ) from exc
    return rows


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one journal decode.

    A decode allocates a row list and a record per line and makes no
    reference cycles, but every 700 container allocations start a
    collection pass, and the older generations' passes walk every live
    object.  Paused, the records cost their allocation only.  A caller
    that already disabled the collector keeps it disabled.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def loads_journal(text: str, where: str = "<journal>") -> Journal:
    """Parse journal text (header line + observation lines).

    Every malformed input raises :class:`~repro.errors.ExperimentError`
    naming ``where`` (and the line number, for a bad line).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ExperimentError(f"{where}: empty journal")
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
        raise ExperimentError(f"{where}:1: bad journal header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != JOURNAL_KIND:
        raise ExperimentError(
            f"{where}: not an observation journal (missing "
            f"kind={JOURNAL_KIND!r} header)"
        )
    fmt = _header_int(header, "format", where)
    if fmt != JOURNAL_FORMAT:
        raise ExperimentError(
            f"{where}: journal format {fmt} unsupported "
            f"(this build reads format {JOURNAL_FORMAT})"
        )
    with _gc_paused():
        observations = _decode_rows(_parse_rows(lines, where), where)
    count = _header_int(header, "count", where)
    if count != len(observations):
        raise ExperimentError(
            f"{where}: header declares {count} observations, "
            f"found {len(observations)}"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ExperimentError(f"{where}: journal meta must be an object")
    return Journal(
        format=fmt, meta=meta, observations=tuple(observations)
    )


def _decode_rows(rows: list, where: str) -> list[Observation]:
    """The parsed observation rows as records; a bad row raises naming
    its line (rows start on line 2, after the header)."""
    observations: list[Observation] = []
    append = observations.append
    for lineno, row in enumerate(rows, start=2):
        if not isinstance(row, list) or len(row) != 6:
            raise ExperimentError(
                f"{where}:{lineno}: journal line is not a 6-element "
                f"observation array"
            )
        time, kind, node, key, ref, value = row
        try:
            append(
                Observation(
                    float(time),
                    str(kind),
                    None if node is None else int(node),
                    str(key),
                    int(ref),
                    float(value),
                )
            )
        except (TypeError, ValueError, OverflowError, ExperimentError) as exc:
            # ExperimentError: Observation rejects an unknown kind.
            raise ExperimentError(
                f"{where}:{lineno}: bad observation row: {exc}"
            ) from exc
    return observations


def read_journal(path: str | Path) -> Journal:
    """Load a journal file (gzip-framed or plain JSONL)."""
    where = str(path)
    return loads_journal(
        unframe_journal(Path(path).read_bytes(), where), where=where
    )
